// Sampler micro-benchmarks (google-benchmark): throughput of the
// Metropolis-Hastings sweep and HMC trajectories on tomography posteriors
// of increasing size, plus the likelihood/gradient kernels they are built
// on. These justify the paper's remark that naive computational Bayes was
// "computationally costly" while MH/HMC make it practical.
//
// Besides the console table, every run writes BENCH_samplers.json (ns/op
// and items/s per kernel and size) so perf PRs can record before/after.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/hmc.hpp"
#include "core/kernels/dispatch.hpp"
#include "core/likelihood.hpp"
#include "core/metropolis.hpp"
#include "core/multichain.hpp"
#include "core/prior.hpp"
#include "stats/rng.hpp"

namespace {

using namespace because;

/// Synthetic dataset: `paths` observations of random paths of length ~5
/// over `ases` ASs, 10% of ASs planted as dampers. With `repeated`, each
/// generated row is observed 2 or 3 times (2.6 on average, about the
/// observations per distinct row of the Table 4 ROV benchmark, where
/// vantage points and beacon prefixes share paths) until `paths`
/// observations are reached.
labeling::PathDataset synthetic_dataset(std::size_t ases, std::size_t paths,
                                        bool repeated = false,
                                        std::uint64_t seed = 42) {
  stats::Rng rng(seed);
  std::vector<bool> damper(ases);
  for (std::size_t i = 0; i < ases; ++i) damper[i] = rng.bernoulli(0.1);

  labeling::PathDataset data;
  while (data.path_count() < paths) {
    topology::AsPath path;
    bool shows = false;
    const std::size_t len = 3 + rng.index(4);
    for (std::size_t k = 0; k < len; ++k) {
      const auto as = static_cast<topology::AsId>(rng.index(ases));
      path.push_back(as + 10);
      if (damper[as]) shows = true;
    }
    const std::size_t copies = repeated ? (rng.bernoulli(0.6) ? 3 : 2) : 1;
    for (std::size_t c = 0; c < copies && data.path_count() < paths; ++c)
      data.add_path(path, shows);
  }
  return data;
}

/// The likelihood and gradient kernels with dispatch pinned to `level`
/// (detection is restored afterwards); skipped where the host lacks it.
/// The committed BENCH_samplers.json carries every level, and main()
/// appends derived "Speedup..." records (scalar-ns / detected-level-ns)
/// that tools/bench_gate.py skips because each input is gated individually.
void log_likelihood_at(benchmark::State& state, core::kernels::Level level) {
  const auto data = synthetic_dataset(
      static_cast<std::size_t>(state.range(0)),
      static_cast<std::size_t>(state.range(0)) * 4);
  const core::Likelihood lik(data);
  std::vector<double> p(lik.dim(), 0.3);
  if (!core::kernels::force_level(level)) {
    state.SkipWithError("dispatch level not supported on this host");
    return;
  }
  for (auto _ : state) benchmark::DoNotOptimize(lik.log_likelihood(p));
  core::kernels::force_level(core::kernels::detected_level());
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(data.path_count()));
}

void gradient_at(benchmark::State& state, core::kernels::Level level) {
  const auto data = synthetic_dataset(
      static_cast<std::size_t>(state.range(0)),
      static_cast<std::size_t>(state.range(0)) * 4);
  const core::Likelihood lik(data);
  std::vector<double> p(lik.dim(), 0.3), grad(lik.dim());
  if (!core::kernels::force_level(level)) {
    state.SkipWithError("dispatch level not supported on this host");
    return;
  }
  for (auto _ : state) {
    lik.gradient(p, grad);
    benchmark::DoNotOptimize(grad.data());
  }
  core::kernels::force_level(core::kernels::detected_level());
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(data.path_count()));
}

void BM_LogLikelihood(benchmark::State& state) {
  log_likelihood_at(state, core::kernels::detected_level());
}
BENCHMARK(BM_LogLikelihood)->Arg(64)->Arg(256)->Arg(1024);

void BM_Gradient(benchmark::State& state) {
  gradient_at(state, core::kernels::detected_level());
}
BENCHMARK(BM_Gradient)->Arg(64)->Arg(256)->Arg(1024);

void BM_LogLikelihoodScalar(benchmark::State& state) {
  log_likelihood_at(state, core::kernels::Level::kScalar);
}
BENCHMARK(BM_LogLikelihoodScalar)->Arg(64)->Arg(256)->Arg(1024);

void BM_GradientScalar(benchmark::State& state) {
  gradient_at(state, core::kernels::Level::kScalar);
}
BENCHMARK(BM_GradientScalar)->Arg(64)->Arg(256)->Arg(1024);

void BM_LogLikelihoodAvx2(benchmark::State& state) {
  log_likelihood_at(state, core::kernels::Level::kAvx2);
}
BENCHMARK(BM_LogLikelihoodAvx2)->Arg(64)->Arg(256)->Arg(1024);

void BM_GradientAvx2(benchmark::State& state) {
  gradient_at(state, core::kernels::Level::kAvx2);
}
BENCHMARK(BM_GradientAvx2)->Arg(64)->Arg(256)->Arg(1024);

void metropolis_sweeps(benchmark::State& state, bool repeated) {
  const auto data = synthetic_dataset(
      static_cast<std::size_t>(state.range(0)),
      static_cast<std::size_t>(state.range(0)) * 4, repeated);
  const core::Likelihood lik(data);
  const core::Prior prior = core::Prior::uniform();
  core::MetropolisConfig config;
  config.samples = 20;
  config.burn_in = 0;
  config.thin = 1;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    config.seed = seed++;
    benchmark::DoNotOptimize(core::run_metropolis(lik, prior, config));
  }
  // One item = one full coordinate sweep.
  state.SetItemsProcessed(state.iterations() * 20);
}

void BM_MetropolisSweeps(benchmark::State& state) {
  metropolis_sweeps(state, false);
}
BENCHMARK(BM_MetropolisSweeps)->Arg(64)->Arg(256)->Arg(1024)
    ->Unit(benchmark::kMillisecond);

// The same sweep where each distinct row is observed ~2.6 times: the
// sweep's transcendental work follows the distinct rows, its additions
// every observation.
void BM_MetropolisSweepsRepeated(benchmark::State& state) {
  metropolis_sweeps(state, true);
}
BENCHMARK(BM_MetropolisSweepsRepeated)->Arg(256)
    ->Unit(benchmark::kMillisecond);

void BM_HmcTrajectories(benchmark::State& state) {
  const auto data = synthetic_dataset(
      static_cast<std::size_t>(state.range(0)),
      static_cast<std::size_t>(state.range(0)) * 4);
  const core::Likelihood lik(data);
  const core::Prior prior = core::Prior::uniform();
  core::HmcConfig config;
  config.samples = 5;
  config.burn_in = 0;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    config.seed = seed++;
    benchmark::DoNotOptimize(core::run_hmc(lik, prior, config));
  }
  state.SetItemsProcessed(state.iterations() * 5);
}
BENCHMARK(BM_HmcTrajectories)->Arg(64)->Arg(256)->Arg(1024)
    ->Unit(benchmark::kMillisecond);

void BM_MetropolisChainsPooled(benchmark::State& state) {
  const auto data = synthetic_dataset(
      static_cast<std::size_t>(state.range(0)),
      static_cast<std::size_t>(state.range(0)) * 4);
  const core::Likelihood lik(data);
  const core::Prior prior = core::Prior::uniform();
  core::MetropolisConfig config;
  config.samples = 20;
  config.burn_in = 0;
  config.thin = 1;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    config.seed = seed++;
    benchmark::DoNotOptimize(
        core::run_metropolis_chains(lik, prior, config, 4));
  }
  // One item = one full coordinate sweep across all chains.
  state.SetItemsProcessed(state.iterations() * 20 * 4);
}
BENCHMARK(BM_MetropolisChainsPooled)->Arg(64)->Arg(256)
    ->Unit(benchmark::kMillisecond);

/// Console output plus a machine-readable capture of every iteration run.
class JsonTeeReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
      because::bench::KernelBenchRecord record;
      record.name = run.benchmark_name();
      // GetAdjustedRealTime is in the benchmark's display unit; rescale to ns.
      record.ns_per_op = run.GetAdjustedRealTime() * 1e9 /
                         benchmark::GetTimeUnitMultiplier(run.time_unit);
      const auto it = run.counters.find("items_per_second");
      if (it != run.counters.end()) record.items_per_second = it->second.value;
      record.iterations = static_cast<long long>(run.iterations);
      records_.push_back(std::move(record));
    }
    ConsoleReporter::ReportRuns(runs);
  }

  const std::vector<because::bench::KernelBenchRecord>& records() const {
    return records_;
  }

 private:
  std::vector<because::bench::KernelBenchRecord> records_;
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  JsonTeeReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  // Derived ratio records: ns_per_op carries slow-ns / fast-ns, not a time.
  // "Speedup" in the name makes tools/bench_gate.py skip them (both inputs
  // are gated individually); the names record which dispatch level won.
  std::vector<because::bench::KernelBenchRecord> records = reporter.records();
  const auto find_ns = [&records](const std::string& name) {
    for (const auto& r : records)
      if (r.name == name) return r.ns_per_op;
    return 0.0;
  };
  const auto add_speedup = [&records, &find_ns](const std::string& name,
                                                const std::string& slow,
                                                const std::string& fast) {
    const double slow_ns = find_ns(slow);
    const double fast_ns = find_ns(fast);
    if (slow_ns <= 0.0 || fast_ns <= 0.0) return;
    because::bench::KernelBenchRecord record;
    record.name = name;
    record.ns_per_op = slow_ns / fast_ns;
    record.iterations = 1;
    records.push_back(record);
  };
  const std::string level = because::core::kernels::level_name(
      because::core::kernels::detected_level());
  for (const char* size : {"64", "256", "1024"}) {
    add_speedup("Speedup_LogLikelihood_" + level + "_vs_scalar/" + size,
                std::string("BM_LogLikelihoodScalar/") + size,
                std::string("BM_LogLikelihood/") + size);
    add_speedup("Speedup_Gradient_" + level + "_vs_scalar/" + size,
                std::string("BM_GradientScalar/") + size,
                std::string("BM_Gradient/") + size);
  }

  if (!because::bench::write_bench_json("BENCH_samplers.json", records))
    std::fprintf(stderr, "warning: could not write BENCH_samplers.json\n");
  return 0;
}
