#include "service/daemon.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <utility>

#include "labeling/signature.hpp"
#include "obs/metrics.hpp"
#include "util/contracts.hpp"
#include "util/thread_pool.hpp"

namespace because::service {

namespace {

std::string fmt_double(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::vector<std::string_view> split_words(std::string_view text) {
  std::vector<std::string_view> words;
  std::size_t pos = 0;
  while (pos < text.size()) {
    while (pos < text.size() && text[pos] == ' ') ++pos;
    std::size_t end = pos;
    while (end < text.size() && text[end] != ' ') ++end;
    if (end > pos) words.push_back(text.substr(pos, end - pos));
    pos = end;
  }
  return words;
}

/// Parse "pfx<id>/<len>", "<id>/<len>" or "<id>" (length defaults to 24).
bool parse_prefix(std::string_view text, bgp::Prefix& out) {
  if (text.starts_with("pfx")) text.remove_prefix(3);
  if (text.empty()) return false;
  std::uint64_t id = 0;
  std::size_t pos = 0;
  while (pos < text.size() && text[pos] >= '0' && text[pos] <= '9') {
    id = id * 10 + static_cast<std::uint64_t>(text[pos] - '0');
    if (id > 0xffffffffull) return false;
    ++pos;
  }
  if (pos == 0) return false;
  std::uint64_t length = 24;
  if (pos < text.size()) {
    if (text[pos] != '/') return false;
    ++pos;
    if (pos == text.size()) return false;
    length = 0;
    while (pos < text.size() && text[pos] >= '0' && text[pos] <= '9') {
      length = length * 10 + static_cast<std::uint64_t>(text[pos] - '0');
      if (length > 128) return false;
      ++pos;
    }
    if (pos != text.size()) return false;
  }
  out = bgp::Prefix{static_cast<std::uint32_t>(id),
                    static_cast<std::uint8_t>(length)};
  return true;
}

void put_prefix(SnapshotWriter& w, const bgp::Prefix& prefix) {
  w.put_u32(prefix.id);
  w.put_u8(prefix.length);
}

bgp::Prefix get_prefix(SnapshotReader& r) {
  bgp::Prefix prefix;
  prefix.id = r.get_u32();
  prefix.length = r.get_u8();
  return prefix;
}

void put_path(SnapshotWriter& w, const topology::AsPath& path) {
  w.put_u64(path.size());
  for (topology::AsId as : path) w.put_u32(as);
}

topology::AsPath get_path(SnapshotReader& r) {
  const std::uint64_t n = r.get_count(4);
  topology::AsPath path;
  path.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) path.push_back(r.get_u32());
  return path;
}

void put_config(SnapshotWriter& w, const ServiceConfig& c) {
  const experiment::PosteriorConfig& inf = c.inference;
  w.put_u64(inf.hmc.samples);
  w.put_u64(inf.hmc.burn_in);
  w.put_f64(inf.hmc.step_size);
  w.put_u64(inf.hmc.leapfrog_steps);
  w.put_u64(inf.hmc.seed);
  w.put_bool(inf.hmc.adapt_step_size);
  w.put_f64(inf.hmc.target_accept);
  w.put_f64(inf.prior_alpha);
  w.put_f64(inf.prior_beta);
  w.put_f64(inf.noise.false_signature);
  w.put_f64(inf.noise.missed_signature);
  w.put_f64(inf.hdpi_mass);
  w.put_f64(inf.cutoffs.low);
  w.put_f64(inf.cutoffs.mid_low);
  w.put_f64(inf.cutoffs.mid_high);
  w.put_f64(inf.cutoffs.high);
  w.put_i64(c.signature.min_rdelta);
  w.put_f64(c.signature.pair_match_fraction);
  w.put_i64(c.signature.burst_slack);
  w.put_u64(c.pool_chains);
  w.put_u64(c.refresh_samples);
  w.put_u64(c.hot_prefix_capacity);
}

ServiceConfig get_config(SnapshotReader& r) {
  ServiceConfig c;
  experiment::PosteriorConfig& inf = c.inference;
  inf.hmc.samples = r.get_u64();
  inf.hmc.burn_in = r.get_u64();
  inf.hmc.step_size = r.get_f64();
  inf.hmc.leapfrog_steps = r.get_u64();
  inf.hmc.seed = r.get_u64();
  inf.hmc.adapt_step_size = r.get_bool();
  inf.hmc.target_accept = r.get_f64();
  inf.prior_alpha = r.get_f64();
  inf.prior_beta = r.get_f64();
  inf.noise.false_signature = r.get_f64();
  inf.noise.missed_signature = r.get_f64();
  inf.hdpi_mass = r.get_f64();
  inf.cutoffs.low = r.get_f64();
  inf.cutoffs.mid_low = r.get_f64();
  inf.cutoffs.mid_high = r.get_f64();
  inf.cutoffs.high = r.get_f64();
  c.signature.min_rdelta = r.get_i64();
  c.signature.pair_match_fraction = r.get_f64();
  c.signature.burst_slack = r.get_i64();
  c.pool_chains = r.get_u64();
  c.refresh_samples = r.get_u64();
  c.hot_prefix_capacity = r.get_u64();
  return c;
}

void put_sampler_state(SnapshotWriter& w, const core::HmcSamplerState& s) {
  w.put_u64(s.theta.size());
  for (double t : s.theta) w.put_f64(t);
  w.put_f64(s.step_size);
  w.put_f64(s.log_eps_bar);
  w.put_f64(s.h_bar);
  w.put_u64(s.iteration);
  w.put_u64(s.proposals);
  w.put_u64(s.accepts);
  w.put_u64(s.kept_accepts);
  w.put_u64(s.divergences);
  w.put_u64(s.leapfrog_steps);
  w.put_string(s.rng_state);
}

core::HmcSamplerState get_sampler_state(SnapshotReader& r) {
  core::HmcSamplerState s;
  const std::uint64_t dim = r.get_count(8);
  s.theta.reserve(dim);
  for (std::uint64_t i = 0; i < dim; ++i) s.theta.push_back(r.get_f64());
  s.step_size = r.get_f64();
  s.log_eps_bar = r.get_f64();
  s.h_bar = r.get_f64();
  s.iteration = r.get_u64();
  s.proposals = r.get_u64();
  s.accepts = r.get_u64();
  s.kept_accepts = r.get_u64();
  s.divergences = r.get_u64();
  s.leapfrog_steps = r.get_u64();
  s.rng_state = r.get_string();
  return s;
}

}  // namespace

std::string to_string(QueryResult::Source source) {
  switch (source) {
    case QueryResult::Source::kCached:
      return "cached";
    case QueryResult::Source::kRefreshed:
      return "refreshed";
    case QueryResult::Source::kCold:
      return "cold";
  }
  return "unknown";
}

std::string render(const QueryResult& result) {
  std::string out;
  out += "prefix " + bgp::to_string(result.prefix) + "  epoch " +
         std::to_string(result.epoch) + "  config-epoch " +
         std::to_string(result.config_epoch) + "  source " +
         to_string(result.source) + "  observations " +
         std::to_string(result.observations) + "\n";
  for (std::size_t i = 0; i < result.summaries.size(); ++i) {
    const core::MarginalSummary& s = result.summaries[i];
    const core::Category category = result.categories[i];
    out += "as " + std::to_string(s.as) + "  p " + fmt_double(s.mean) +
           "  hdpi [" + fmt_double(s.hdpi.lo) + ", " + fmt_double(s.hdpi.hi) +
           "]  category " + std::to_string(static_cast<int>(category)) + " (" +
           core::to_string(category) + ")\n";
  }
  out += "damping:";
  if (result.damping.empty()) {
    out += " none";
  } else {
    for (topology::AsId as : result.damping)
      out += " " + std::to_string(as);
  }
  out += "\n";
  return out;
}

Daemon::Daemon(ServiceConfig config, util::ThreadPool* pool, Clock* clock)
    : pool_(pool), clock_(clock), config_(std::move(config)) {
  config_.validate();
  if (clock_ == nullptr) {
    own_clock_ = std::make_unique<SystemClock>();
    clock_ = own_clock_.get();
  }
}

void Daemon::load_campaign(const experiment::CampaignResult& campaign) {
  util::MutexLock lock(mutex_);
  for (const collector::VpInfo& vp : campaign.store.vantage_points())
    front_.register_vp(vp);
  for (const experiment::BeaconDeployment& beacon : campaign.beacons)
    front_.register_schedule(beacon.prefix, beacon.schedule);
  front_.set_exclude(campaign.site_set());
}

std::size_t Daemon::replay(const collector::UpdateStore& store,
                           std::size_t first, std::size_t count) {
  const std::vector<collector::RecordedUpdate>& records = store.all();
  if (first >= records.size()) return 0;
  const std::size_t last =
      count > records.size() - first ? records.size() : first + count;
  for (std::size_t i = first; i < last; ++i) {
    const collector::RecordedUpdate& r = records[i];
    StreamUpdate update;
    update.vp = r.vp;
    update.recorded_at = r.recorded_at;
    update.type = r.update.type;
    update.prefix = r.update.prefix;
    update.beacon_timestamp = r.update.beacon_timestamp;
    const std::span<const topology::AsId> path = store.path_of(r);
    update.path.assign(path.begin(), path.end());
    ingest(update);
  }
  return last - first;
}

void Daemon::ingest(const StreamUpdate& update) {
  util::MutexLock lock(mutex_);
  front_.apply(update);
  ++stats_.ingested;
  obs::add(obs::Counter::kServiceIngestedUpdates);
}

QueryResult Daemon::result_from(const PrefixPosterior& posterior,
                                QueryResult::Source source) const {
  QueryResult result;
  result.prefix = posterior.prefix();
  result.source = source;
  result.epoch = posterior.built_epoch();
  result.config_epoch = posterior.config_epoch();
  result.observations = posterior.observations();
  result.summaries = posterior.summaries();
  result.categories = posterior.categories();
  for (std::size_t i = 0; i < result.categories.size(); ++i)
    if (core::is_damping(result.categories[i]))
      result.damping.push_back(result.summaries[i].as);
  std::sort(result.damping.begin(), result.damping.end());
  return result;
}

void Daemon::evict_locked() {
  while (entries_.size() >= config_.hot_prefix_capacity) {
    auto victim = entries_.end();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->second->busy) continue;
      if (victim == entries_.end() || it->second->posterior.last_used() <
                                          victim->second->posterior.last_used())
        victim = it;
    }
    if (victim == entries_.end()) return;  // everything leased; exceed softly
    entries_.erase(victim);
  }
}

QueryResult Daemon::query(const bgp::Prefix& prefix) {
  ServiceConfig cfg;
  std::unordered_set<topology::AsId> exclude;
  std::vector<labeling::LabeledPath> labeled;
  Entry* entry = nullptr;
  std::uint64_t target_epoch = 0;
  std::uint64_t cfg_epoch = 0;
  bool do_refresh = false;
  {
    util::MutexLock lock(mutex_);
    ++stats_.queries;
    obs::add(obs::Counter::kServiceQueries);
    // Wait out another query's lease on this prefix. The entry pointer is
    // re-resolved after every wakeup: while we slept, a snapshot restore
    // or an eviction may have replaced the map.
    for (;;) {
      auto it = entries_.find(prefix);
      if (it == entries_.end()) {
        evict_locked();
        it = entries_.emplace(prefix, std::make_unique<Entry>(prefix)).first;
      }
      entry = it->second.get();
      if (!entry->busy) break;
      cv_.wait(mutex_);
    }
    target_epoch = front_.epoch(prefix);
    cfg_epoch = config_epoch_;
    entry->posterior.touch(++query_seq_);
    if (entry->posterior.built() &&
        entry->posterior.built_epoch() == target_epoch &&
        entry->posterior.config_epoch() == cfg_epoch) {
      ++stats_.cache_hits;
      obs::add(obs::Counter::kServiceQueryCacheHits);
      return result_from(entry->posterior, QueryResult::Source::kCached);
    }
    do_refresh = entry->posterior.built() &&
                 entry->posterior.config_epoch() == cfg_epoch;
    cfg = config_;
    exclude = front_.exclude();
    // Only the queried prefix is relabeled — the incremental contract.
    if (const beacon::BeaconSchedule* schedule = front_.schedule_of(prefix))
      labeled = labeling::label_paths(front_.store(), prefix, *schedule,
                                      cfg.signature);
    entry->busy = true;
  }

  // The lease: this thread owns entry->posterior without the lock (waiters
  // sleep on cv_; eviction and restore skip/await busy entries).
  QueryResult result;
  try {
    if (do_refresh)
      entry->posterior.refresh(labeled, exclude, cfg, target_epoch, pool_);
    else
      entry->posterior.build(labeled, exclude, cfg, target_epoch, cfg_epoch,
                             pool_);
    result = result_from(entry->posterior,
                         do_refresh ? QueryResult::Source::kRefreshed
                                    : QueryResult::Source::kCold);
  } catch (...) {
    {
      util::MutexLock lock(mutex_);
      entry->busy = false;
    }
    cv_.notify_all();
    throw;
  }
  {
    util::MutexLock lock(mutex_);
    entry->busy = false;
    if (do_refresh) {
      ++stats_.refreshes;
      obs::add(obs::Counter::kServiceQueryRefreshes);
    } else {
      ++stats_.cold_builds;
      obs::add(obs::Counter::kServiceQueryColdBuilds);
    }
  }
  cv_.notify_all();
  return result;
}

void Daemon::stage(const ServiceConfig& next) {
  util::MutexLock lock(mutex_);
  staged_ = next;
}

bool Daemon::has_staged() const {
  util::MutexLock lock(mutex_);
  return staged_.has_value();
}

std::string Daemon::validate_staged() const {
  util::MutexLock lock(mutex_);
  if (!staged_.has_value()) return "no staged config";
  try {
    staged_->validate();
  } catch (const std::invalid_argument& err) {
    return err.what();
  }
  return "";
}

void Daemon::commit() {
  util::MutexLock lock(mutex_);
  BECAUSE_CHECK(staged_.has_value(), "Daemon::commit: nothing staged");
  staged_->validate();
  config_ = *std::move(staged_);
  staged_.reset();
  ++config_epoch_;
  ++stats_.reconfig_commits;
  obs::add(obs::Counter::kServiceReconfigCommits);
}

void Daemon::abort_staged() {
  util::MutexLock lock(mutex_);
  staged_.reset();
}

std::string Daemon::show(std::string_view command) {
  const std::vector<std::string_view> words = split_words(command);
  if (words.size() == 4 && words[0] == "show" && words[1] == "rfd" &&
      words[2] == "posterior")
    return show_posterior(words[3]);
  if (words.size() == 3 && words[0] == "show" && words[1] == "campaign" &&
      words[2] == "status") {
    util::MutexLock lock(mutex_);
    return show_campaign_locked();
  }
  if (words.size() == 3 && words[0] == "show" && words[1] == "service" &&
      words[2] == "stats") {
    util::MutexLock lock(mutex_);
    return show_stats_locked();
  }
  return "% unknown command: " + std::string(command) + "\n";
}

std::string Daemon::show_posterior(std::string_view prefix_text) {
  bgp::Prefix prefix;
  if (!parse_prefix(prefix_text, prefix))
    return "% bad prefix: " + std::string(prefix_text) + "\n";
  return render(query(prefix));
}

std::string Daemon::show_campaign_locked() {
  std::string out = "campaign status\n";
  out += "vantage-points " +
         std::to_string(front_.store().vantage_points().size()) +
         "  records " + std::to_string(front_.store().size()) +
         "  ingested " + std::to_string(front_.ingested()) + "\n";
  std::map<bgp::Prefix, std::size_t> rib_routes;
  for (const auto& [key, route] : front_.rib()) ++rib_routes[key.second];
  for (const auto& [prefix, schedule] : front_.schedules()) {
    const auto routes = rib_routes.find(prefix);
    out += "prefix " + bgp::to_string(prefix) + "  interval-min " +
           fmt_double(sim::to_minutes(schedule.update_interval)) + "  pairs " +
           std::to_string(schedule.pairs) + "  epoch " +
           std::to_string(front_.epoch(prefix)) + "  rib-routes " +
           std::to_string(routes == rib_routes.end() ? 0 : routes->second) +
           "\n";
  }
  return out;
}

std::string Daemon::show_stats_locked() {
  std::string out = "becaused service stats\n";
  out += "config-epoch " + std::to_string(config_epoch_) + "  staged " +
         (staged_.has_value() ? "yes" : "no") + "  hot-prefixes " +
         std::to_string(entries_.size()) + " (capacity " +
         std::to_string(config_.hot_prefix_capacity) + ")  pool-chains " +
         std::to_string(config_.pool_chains) + "\n";
  out += "ingested " + std::to_string(stats_.ingested) + "  queries " +
         std::to_string(stats_.queries) + "  cache-hits " +
         std::to_string(stats_.cache_hits) + "  refreshes " +
         std::to_string(stats_.refreshes) + "  cold-builds " +
         std::to_string(stats_.cold_builds) + "\n";
  out += "snapshot-saves " + std::to_string(stats_.snapshot_saves) +
         "  snapshot-restores " + std::to_string(stats_.snapshot_restores) +
         "  reconfig-commits " + std::to_string(stats_.reconfig_commits) +
         "\n";
  if (obs::enabled()) {
    // The obs registry's view of the same counters (the service.* block of
    // the fixed catalogue; identical order on every run).
    const obs::MetricsSnapshot snap = obs::snapshot();
    for (const obs::MetricsSnapshot::CounterRow& row : snap.counters)
      if (row.name.starts_with("service."))
        out += "obs " + row.name + " " + std::to_string(row.value) + "\n";
  }
  // The single wallclock line of the service (FixedClock in tests): a
  // human at the vtysh prompt may know what time it is.
  out += "wallclock-unix-ms " + std::to_string(clock_->now_unix_ms()) + "\n";
  return out;
}

void Daemon::wait_idle_locked() {
  for (;;) {
    bool any_busy = false;
    for (const auto& [prefix, entry] : entries_)
      if (entry->busy) {
        any_busy = true;
        break;
      }
    if (!any_busy) return;
    cv_.wait(mutex_);
  }
}

void Daemon::serialize_locked(SnapshotWriter& w) {
  write_header(w);
  put_config(w, config_);
  w.put_u64(config_epoch_);
  w.put_u64(query_seq_);

  const std::vector<collector::VpInfo>& vps = front_.store().vantage_points();
  w.put_u64(vps.size());
  for (const collector::VpInfo& vp : vps) {
    w.put_u32(vp.id);
    w.put_u32(vp.as);
    w.put_u8(static_cast<std::uint8_t>(vp.project));
    w.put_i64(vp.export_delay);
  }

  std::vector<topology::AsId> sorted_exclude(front_.exclude().begin(),
                                             front_.exclude().end());
  std::sort(sorted_exclude.begin(), sorted_exclude.end());
  w.put_u64(sorted_exclude.size());
  for (topology::AsId as : sorted_exclude) w.put_u32(as);

  w.put_u64(front_.schedules().size());
  for (const auto& [prefix, schedule] : front_.schedules()) {
    put_prefix(w, prefix);
    w.put_i64(schedule.update_interval);
    w.put_i64(schedule.burst_length);
    w.put_i64(schedule.break_length);
    w.put_u64(schedule.pairs);
    w.put_i64(schedule.start);
    w.put_i64(schedule.warmup);
  }

  const std::vector<collector::RecordedUpdate>& records =
      front_.store().all();
  w.put_u64(records.size());
  for (const collector::RecordedUpdate& r : records) {
    w.put_i64(r.recorded_at);
    w.put_u32(r.vp);
    w.put_u8(static_cast<std::uint8_t>(r.update.type));
    put_prefix(w, r.update.prefix);
    w.put_i64(r.update.beacon_timestamp);
    const std::span<const topology::AsId> path =
        front_.store().path_of(r);
    w.put_u64(path.size());
    for (topology::AsId as : path) w.put_u32(as);
  }

  std::uint64_t built_entries = 0;
  for (const auto& [prefix, entry] : entries_)
    if (entry->posterior.built()) ++built_entries;
  w.put_u64(built_entries);
  for (auto& [prefix, entry] : entries_) {
    PrefixPosterior& posterior = entry->posterior;
    if (!posterior.built()) continue;
    put_prefix(w, prefix);
    w.put_u64(posterior.built_epoch());
    w.put_u64(posterior.config_epoch());
    w.put_u64(posterior.last_used());

    const auto& inputs = posterior.build_inputs();
    w.put_u64(inputs.size());
    for (const auto& [path, rfd] : inputs) {
      w.put_bool(rfd);
      put_path(w, path);
    }

    const std::vector<core::HmcSamplerState> states =
        posterior.sampler_states();
    w.put_u64(states.size());
    for (const core::HmcSamplerState& state : states)
      put_sampler_state(w, state);

    const std::vector<core::MarginalSummary>& summaries =
        posterior.summaries();
    w.put_u64(summaries.size());
    for (const core::MarginalSummary& s : summaries) {
      w.put_u32(s.as);
      w.put_u64(s.node);
      w.put_f64(s.mean);
      w.put_f64(s.hdpi.lo);
      w.put_f64(s.hdpi.hi);
    }

    const std::vector<core::Category>& categories = posterior.categories();
    w.put_u64(categories.size());
    for (core::Category c : categories)
      w.put_u8(static_cast<std::uint8_t>(static_cast<int>(c)));

    w.put_u64(posterior.dataset().as_count());
  }
}

void Daemon::deserialize_locked(SnapshotReader& r) {
  read_header(r);
  ServiceConfig config = get_config(r);
  config.validate();
  const std::uint64_t config_epoch = r.get_u64();
  const std::uint64_t query_seq = r.get_u64();

  // Past this point the daemon's state is replaced wholesale; a parse
  // failure below still aborts/throws before any query can observe a
  // half-restored daemon because the caller holds the lock.
  config_ = std::move(config);
  staged_.reset();
  config_epoch_ = config_epoch;
  query_seq_ = query_seq;
  entries_.clear();
  front_.clear();

  const std::uint64_t vp_count = r.get_count(17);
  for (std::uint64_t i = 0; i < vp_count; ++i) {
    collector::VpInfo vp;
    vp.id = r.get_u32();
    vp.as = r.get_u32();
    const std::uint8_t project = r.get_u8();
    BECAUSE_CHECK(project <= 2, "snapshot: bad collector project "
                                    << static_cast<int>(project));
    vp.project = static_cast<collector::Project>(project);
    vp.export_delay = r.get_i64();
    front_.register_vp(vp);
  }

  const std::uint64_t exclude_count = r.get_count(4);
  std::unordered_set<topology::AsId> exclude;
  exclude.reserve(exclude_count);
  for (std::uint64_t i = 0; i < exclude_count; ++i)
    exclude.insert(r.get_u32());
  front_.set_exclude(std::move(exclude));

  const std::uint64_t schedule_count = r.get_count(5 + 6 * 8);
  for (std::uint64_t i = 0; i < schedule_count; ++i) {
    const bgp::Prefix prefix = get_prefix(r);
    beacon::BeaconSchedule schedule;
    schedule.update_interval = r.get_i64();
    schedule.burst_length = r.get_i64();
    schedule.break_length = r.get_i64();
    schedule.pairs = r.get_u64();
    schedule.start = r.get_i64();
    schedule.warmup = r.get_i64();
    front_.register_schedule(prefix, schedule);
  }

  const std::uint64_t record_count = r.get_count(8 + 4 + 1 + 5 + 8 + 8);
  for (std::uint64_t i = 0; i < record_count; ++i) {
    StreamUpdate update;
    update.recorded_at = r.get_i64();
    update.vp = r.get_u32();
    const std::uint8_t type = r.get_u8();
    BECAUSE_CHECK(type <= 1,
                  "snapshot: bad update type " << static_cast<int>(type));
    update.type = static_cast<bgp::UpdateType>(type);
    update.prefix = get_prefix(r);
    update.beacon_timestamp = r.get_i64();
    update.path = get_path(r);
    front_.apply(update);
  }

  const std::uint64_t entry_count = r.get_count(5 + 3 * 8);
  for (std::uint64_t i = 0; i < entry_count; ++i) {
    const bgp::Prefix prefix = get_prefix(r);
    const std::uint64_t built_epoch = r.get_u64();
    const std::uint64_t entry_config_epoch = r.get_u64();
    const std::uint64_t last_used = r.get_u64();

    const std::uint64_t input_count = r.get_count(9);
    std::vector<std::pair<topology::AsPath, bool>> inputs;
    inputs.reserve(input_count);
    for (std::uint64_t k = 0; k < input_count; ++k) {
      const bool rfd = r.get_bool();
      inputs.emplace_back(get_path(r), rfd);
    }

    const std::uint64_t state_count = r.get_count(11 * 8);
    std::vector<core::HmcSamplerState> states;
    states.reserve(state_count);
    for (std::uint64_t k = 0; k < state_count; ++k)
      states.push_back(get_sampler_state(r));

    const std::uint64_t summary_count = r.get_count(4 + 4 * 8);
    std::vector<core::MarginalSummary> summaries;
    summaries.reserve(summary_count);
    for (std::uint64_t k = 0; k < summary_count; ++k) {
      core::MarginalSummary s;
      s.as = r.get_u32();
      s.node = r.get_u64();
      s.mean = r.get_f64();
      s.hdpi.lo = r.get_f64();
      s.hdpi.hi = r.get_f64();
      summaries.push_back(s);
    }

    const std::uint64_t category_count = r.get_count(1);
    std::vector<core::Category> categories;
    categories.reserve(category_count);
    for (std::uint64_t k = 0; k < category_count; ++k) {
      const std::uint8_t category = r.get_u8();
      BECAUSE_CHECK(category >= 1 && category <= 5,
                    "snapshot: bad category " << static_cast<int>(category));
      categories.push_back(static_cast<core::Category>(category));
    }

    const std::uint64_t as_count = r.get_u64();

    auto entry = std::make_unique<Entry>(prefix);
    entry->posterior.restore(std::move(inputs), front_.exclude(),
                             std::move(states), std::move(summaries),
                             std::move(categories), config_, built_epoch,
                             entry_config_epoch, last_used);
    BECAUSE_CHECK(entry->posterior.dataset().as_count() == as_count,
                  "snapshot: entry for "
                      << bgp::to_string(prefix) << " rebuilt "
                      << entry->posterior.dataset().as_count()
                      << " coordinates, expected " << as_count);
    const bool inserted =
        entries_.emplace(prefix, std::move(entry)).second;
    BECAUSE_CHECK(inserted, "snapshot: duplicate posterior entry for "
                                << bgp::to_string(prefix));
  }
  BECAUSE_CHECK(r.at_end(),
                "snapshot: " << r.remaining() << " trailing bytes");
}

std::string Daemon::save_snapshot() {
  SnapshotWriter writer;
  util::MutexLock lock(mutex_);
  wait_idle_locked();
  serialize_locked(writer);
  ++stats_.snapshot_saves;
  obs::add(obs::Counter::kServiceSnapshotSaves);
  return writer.take();
}

void Daemon::save_snapshot_file(const std::string& path) {
  write_snapshot_file(path, save_snapshot());
}

void Daemon::restore_snapshot(std::string_view bytes) {
  SnapshotReader reader(bytes);
  util::MutexLock lock(mutex_);
  wait_idle_locked();
  deserialize_locked(reader);
  ++stats_.snapshot_restores;
  obs::add(obs::Counter::kServiceSnapshotRestores);
}

void Daemon::restore_snapshot_file(const std::string& path) {
  restore_snapshot(read_snapshot_file(path));
}

ServiceStats Daemon::stats() const {
  util::MutexLock lock(mutex_);
  return stats_;
}

ServiceConfig Daemon::config() const {
  util::MutexLock lock(mutex_);
  return config_;
}

std::uint64_t Daemon::config_epoch() const {
  util::MutexLock lock(mutex_);
  return config_epoch_;
}

}  // namespace because::service
