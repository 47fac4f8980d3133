// The benchmark program: runs one workload for at least --seconds of wall
// time and prints its metrics, as readable lines and, last, as one
// JSON object. See README.md for the metrics, workloads and seeds.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//   perfbench --workload <name> --seed <n> --profile   (one pass, no output
//                                                       but the fingerprint)
//
// A run is a sequence of passes (pass.h). The first `sim_passes` passes
// each use their own seed derived from --seed; their simulated results are
// pooled into the simulated-clock metrics, so those depend on --seed alone.
// Further passes, run until --seconds have passed, repeat those seeds: they
// add samples to the harness-clock medians and must reproduce the first
// passes' simulated digests exactly. With --trace 1 the first passes also
// reduce sampled ops' spans, and at least one repeat pass runs without
// doing so: equal digests show that collecting spans changes nothing.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "common/json_writer.h"
#include "common/logging.h"
#include "perfbench/pass.h"
#include "perfbench/workloads.h"

namespace perfbench {
namespace {

/// Passes stop being added once this much wall time has gone, whatever
/// --seconds asks, so a run ends well within its time limit.
constexpr double kWallCapSeconds = 150;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool profile = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--profile") {
      args->profile = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || args->seconds < 0) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else {
      return false;
    }
  }
  return !args->workload.empty();
}

std::uint64_t PassSeed(std::uint64_t seed, int pass) {
  // splitmix64 of (seed, pass): distinct, well-mixed cluster seeds.
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ull +
                    static_cast<std::uint64_t>(pass + 1) *
                        0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Linear-interpolated percentile (p in [0, 100]); 0 for no samples.
double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double h = (static_cast<double>(samples.size()) - 1) * p / 100;
  const auto lo = static_cast<std::size_t>(h);
  if (lo + 1 >= samples.size()) return samples.back();
  return samples[lo] + (h - static_cast<double>(lo)) *
                           (samples[lo + 1] - samples[lo]);
}

double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 50);
}

double HistPercentile(const mvstore::Histogram& h, double p) {
  return h.count() > 0 ? h.Percentile(p) : 0.0;
}

double Ratio(double a, double b) { return b > 0 ? a / b : 0.0; }

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atof(line.c_str() + 6) / 1024;
  }
  return 0;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

template <typename Field>
std::vector<double> Collect(const std::vector<PassResult>& passes,
                            Field field) {
  std::vector<double> out;
  for (const PassResult& p : passes) out.push_back(field(p));
  return out;
}

/// Reduces a run's passes to metrics: simulated-clock figures from the
/// first `pooled` passes, harness-clock medians from all of them.
class Report {
 public:
  Report(const Workload& workload, std::vector<PassResult> passes,
         std::size_t pooled)
      : w_(workload),
        all_(std::move(passes)),
        pooled_(all_.data(), pooled) {
    MVSTORE_CHECK_LE(pooled, all_.size());
    for (const PassResult& p : pooled_) {
      layer_.Add(p.layer);
      window_s_ += mvstore::ToSeconds(p.window);
      window_ops_ += static_cast<double>(p.window_ops);
    }
  }

  // pooled_ points into all_.
  Report(const Report&) = delete;
  Report& operator=(const Report&) = delete;

  std::vector<double> Pooled(std::vector<double> PassResult::*field) const {
    std::vector<double> out;
    for (const PassResult& p : pooled_) {
      out.insert(out.end(), (p.*field).begin(), (p.*field).end());
    }
    return out;
  }

  /// The end-to-end metrics BENCHMARK.json bounds.
  std::vector<Metric> EndToEnd() const {
    const auto reads = Pooled(&PassResult::read_us);
    const auto writes = Pooled(&PassResult::write_us);
    const auto visible = Pooled(&PassResult::visible_us);
    return {
        {"ops_per_sim_s", Ratio(window_ops_, window_s_), "ops/s"},
        {"read_p50_us", Percentile(reads, 50), "us"},
        {"read_p99_us", Percentile(reads, 99), "us"},
        {"write_p50_us", Percentile(writes, 50), "us"},
        {"write_p90_us", Percentile(writes, 90), "us"},
        {"visible_p50_us", Percentile(visible, 50), "us"},
        {"setup_s", Median(Collect(all_, [](const PassResult& p) {
           return p.setup_cpu_s;
         })),
         "s"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
    };
  }

  /// Further percentiles and the sample counts, printed for reading only
  /// (README.md says why these are not bounded).
  std::vector<Metric> Tails() const {
    const auto reads = Pooled(&PassResult::read_us);
    const auto writes = Pooled(&PassResult::write_us);
    const auto visible = Pooled(&PassResult::visible_us);
    return {
        {"read_p90_us", Percentile(reads, 90), "us"},
        {"write_p99_us", Percentile(writes, 99), "us"},
        {"visible_p99_us", Percentile(visible, 99), "us"},
        {"read_samples", static_cast<double>(reads.size()), "count"},
        {"write_samples", static_cast<double>(writes.size()), "count"},
        {"visible_samples", static_cast<double>(visible.size()), "count"},
    };
  }

  std::vector<Metric> PerLayer() const {
    const LayerStats& l = layer_;
    auto c = [&l](const char* name) { return l.Counter(name); };
    auto p = [&l](const char* name, double pct) {
      return HistPercentile(l.Hist(name), pct);
    };
    const mvstore::store::ClusterConfig config = w_.Config(0);
    const double ops = window_ops_;
    const double puts = c("client_puts");
    const double reads =
        c("client_gets") + c("client_view_gets") + c("client_index_gets");
    const double props = c("propagations_completed");
    const double view_gets = c("client_view_gets");
    double view_queries = 0;
    double empty = 0;
    double entries = 0;
    double runs_max = 0;
    for (const PassResult& r : pooled_) {
      view_queries += static_cast<double>(r.view_queries);
      empty += static_cast<double>(r.empty_answers);
      entries += r.entries_per_live_row / static_cast<double>(pooled_.size());
      runs_max = std::max(runs_max, r.runs_max);
    }
    const auto aggregates = Pooled(&PassResult::aggregate_us);
    std::vector<Metric> m = {
        {"sim.events_per_op", Ratio(c("sim.events"), ops), "count"},
        {"sim.messages_per_op", Ratio(c("sim.messages"), ops), "count"},
        {"sim.payloads_per_message",
         Ratio(c("sim.payloads"), c("sim.messages")), "ratio"},
        {"sim.busy_share",
         Ratio(l.Hist("stage_service").sum(),
               static_cast<double>(config.num_servers *
                                   config.cores_per_server) *
                   window_s_ * 1e6),
         "share"},
        {"sim.queue_wait_p50_us", p("stage_queue_wait", 50), "us"},
        {"sim.queue_wait_p99_us", p("stage_queue_wait", 99), "us"},
        {"sim.batch_wait_p99_us", p("stage_batch_flush", 99), "us"},
        {"store.get_p50_us", p("get_latency", 50), "us"},
        {"store.get_p99_us", p("get_latency", 99), "us"},
        {"store.replica_writes_per_write", Ratio(c("replica_writes"), puts),
         "ratio"},
        {"store.coordinator_retries", c("coordinator_retries"), "count"},
        {"store.hints_stored", c("hints_stored"), "count"},
        {"store.read_repairs_per_read", Ratio(c("read_repairs"), reads),
         "ratio"},
        {"store.ae_rows_pushed_per_write",
         Ratio(c("anti_entropy_rows_pushed"), puts), "ratio"},
        {"store.ae_useful_bucket_ratio",
         Ratio(c("anti_entropy_buckets_synced"),
               c("anti_entropy_digest_exchanges") *
                   config.anti_entropy_buckets),
         "ratio"},
        {"store.ae_exchanges", c("anti_entropy_digest_exchanges"), "count"},
        {"store.freshness_waits", c("freshness_bound_waits"), "count"},
        {"store.freshness_fallbacks",
         c("freshness_fallback_si") + c("freshness_fallback_base"), "count"},
        {"store.freshness_wait_p99_us", p("freshness_wait", 99), "us"},
        {"store.claimed_staleness_p99_us", p("view_staleness", 99), "us"},
        {"view.query_p50_us", p("view_get_latency", 50), "us"},
        {"view.query_p99_us", p("view_get_latency", 99), "us"},
        {"view.aggregate_p50_us", Percentile(aggregates, 50), "us"},
        {"view.aggregate_p99_us", Percentile(aggregates, 99), "us"},
        {"view.propagation_delay_p50_us", p("propagation_delay", 50), "us"},
        {"view.propagation_delay_p99_us", p("propagation_delay", 99), "us"},
        {"view.failed_attempts_per_propagation",
         Ratio(c("propagation_failures"), props), "ratio"},
        {"view.lock_waits_per_propagation", Ratio(c("lock_waits"), props),
         "ratio"},
        {"view.chain_hops_per_propagation", Ratio(c("chain_hops"), props),
         "ratio"},
        {"view.coalesced_share",
         Ratio(c("prop_batched"), c("propagations_started")), "share"},
        {"view.abandoned", Abandoned(), "count"},
        {"view.scatter_scans_per_query",
         Ratio(c("view_scatter_scans"), view_gets), "ratio"},
        {"view.stale_rows_filtered_per_query",
         Ratio(c("stale_rows_filtered"), view_gets), "ratio"},
        {"view.empty_share", Ratio(empty, view_queries), "share"},
        {"storage.row_cache_hit_ratio",
         Ratio(c("row_cache_hits"),
               c("row_cache_hits") + c("row_cache_misses")),
         "ratio"},
        {"storage.compactions", c("compactions_run"), "count"},
        {"storage.compaction_p99_us", p("stage_compaction", 99), "us"},
        {"storage.entries_per_live_row", entries, "ratio"},
        {"storage.runs_max", runs_max, "count"},
        {"index.query_p50_us", p("index_get_latency", 50), "us"},
        {"index.query_p99_us", p("index_get_latency", 99), "us"},
        {"index.probes_per_query",
         Ratio(c("index_fragment_probes"), c("client_index_gets")), "ratio"},
        {"index.updates_per_write", Ratio(c("index_updates"), puts), "ratio"},
        {"trace.spans_per_op", Ratio(c("trace.recorded"), ops), "count"},
        {"trace.evicted", c("trace.evicted"), "count"},
        {"ops_per_cpu_s", Median(Collect(all_, [](const PassResult& r) {
           return Ratio(static_cast<double>(r.client_ops), r.run_cpu_s);
         })),
         "ops/s"},
    };
    AddPaths("read", &PassResult::read_paths, &m);
    AddPaths("write", &PassResult::write_paths, &m);
    auto phase = [this](double PassResult::*field) {
      return Median(
          Collect(all_, [field](const PassResult& r) { return r.*field; }));
    };
    m.push_back({"phase.load_cpu_s", phase(&PassResult::setup_cpu_s), "s"});
    m.push_back({"phase.run_cpu_s", phase(&PassResult::run_cpu_s), "s"});
    m.push_back(
        {"phase.quiesce_cpu_s", phase(&PassResult::quiesce_cpu_s), "s"});
    m.push_back({"phase.check_cpu_s", phase(&PassResult::check_cpu_s), "s"});
    return m;
  }

  double Abandoned() const {
    double total = 0;
    for (const PassResult& r : pooled_) {
      total += static_cast<double>(r.abandoned);
    }
    return total;
  }

 private:
  void AddPaths(const std::string& cls,
                std::vector<PathBreakdown> PassResult::*field,
                std::vector<Metric>* out) const {
    std::vector<double> net, queue, service, view_wait;
    for (const PassResult& r : pooled_) {
      for (const PathBreakdown& b : r.*field) {
        net.push_back(b.net_us);
        queue.push_back(b.queue_us);
        service.push_back(b.service_us);
        view_wait.push_back(b.view_wait_us);
      }
    }
    const std::string prefix = "path." + cls + ".";
    out->push_back({prefix + "net_us", Median(net), "us"});
    out->push_back({prefix + "queue_us", Median(queue), "us"});
    out->push_back({prefix + "service_us", Median(service), "us"});
    out->push_back({prefix + "view_wait_us", Median(view_wait), "us"});
  }

  const Workload& w_;
  const std::vector<PassResult> all_;
  const std::span<const PassResult> pooled_;  ///< a prefix of all_
  LayerStats layer_;
  double window_s_ = 0;
  double window_ops_ = 0;
};

void PrintPass(int index, std::uint64_t seed, const PassResult& p) {
  std::printf(
      "pass %d seed %llu: sim_events=%llu client_ops=%llu end_time_us=%lld "
      "window_ops=%llu setup_cpu_s=%.3f run_cpu_s=%.3f quiesce_cpu_s=%.3f "
      "check_cpu_s=%.3f digest=%016llx\n",
      index, static_cast<unsigned long long>(seed),
      static_cast<unsigned long long>(p.sim_events),
      static_cast<unsigned long long>(p.client_ops),
      static_cast<long long>(p.end_time),
      static_cast<unsigned long long>(p.window_ops), p.setup_cpu_s,
      p.run_cpu_s, p.quiesce_cpu_s, p.check_cpu_s,
      static_cast<unsigned long long>(p.SimDigest()));
  for (const std::string& f : p.failures) {
    std::printf("  failed op: %s\n", f.c_str());
  }
  const std::size_t shown = std::min<std::size_t>(p.problems.size(), 10);
  for (std::size_t i = 0; i < shown; ++i) {
    std::printf("  model check: %s\n", p.problems[i].c_str());
  }
  if (p.problems.size() > shown) {
    std::printf("  model check: ... %zu more\n", p.problems.size() - shown);
  }
  std::fflush(stdout);
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> | --workload <name> --seed <n> --profile\n");
    return 2;
  }
  const Workload* workload = FindWorkload(args.workload);
  if (workload == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  const int pooled = workload->sim_passes;
  if (args.profile) {
    PrintPass(0, PassSeed(args.seed, 0),
              RunPass(*workload, PassSeed(args.seed, 0), false));
    return 0;
  }

  // In trace mode one repeat pass is required: it runs without collecting
  // spans and must reproduce the traced pass's digest.
  const int min_passes = pooled + (args.trace ? 1 : 0);
  const auto start = std::chrono::steady_clock::now();
  auto elapsed = [&start] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };
  std::vector<PassResult> passes;
  bool deterministic = true;
  while (static_cast<int>(passes.size()) < min_passes ||
         (elapsed() < args.seconds && elapsed() < kWallCapSeconds)) {
    const int index = static_cast<int>(passes.size());
    const int sub = index % pooled;
    const std::uint64_t seed = PassSeed(args.seed, sub);
    passes.push_back(RunPass(*workload, seed, args.trace && index < pooled));
    PrintPass(index, seed, passes.back());
    const PassResult& first = passes[static_cast<std::size_t>(sub)];
    if (index >= pooled && passes.back().SimDigest() != first.SimDigest()) {
      std::printf("  NOT DETERMINISTIC: pass %d differs from pass %d\n", index,
                  sub);
      deterministic = false;
    }
  }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool checked = true;
  for (const PassResult& p : passes) {
    attempted += p.attempted;
    failed += p.failed;
    checked = checked && p.problems.empty();
  }
  const Report report(*workload, std::move(passes),
                      static_cast<std::size_t>(pooled));
  const std::vector<Metric> metrics =
      args.trace ? report.PerLayer() : report.EndToEnd();
  // The simulated figures of the other mode and the tails, for reading
  // (a traced run's simulated end-to-end figures equal a measured run's).
  std::vector<Metric> info = report.Tails();
  if (args.trace) {
    for (const Metric& m : report.EndToEnd()) {
      if (m.unit != "s" && m.unit != "MB") info.push_back(m);
    }
  }
  for (const Metric& m : info) {
    std::printf("  (info) %-35s %16.4f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const Metric& m : metrics) {
    std::printf("  %-42s %16.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("  attempted=%llu failed=%llu model_check=%s deterministic=%s\n",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              checked ? "pass" : "FAIL", deterministic ? "yes" : "NO");

  mvstore::JsonWriter json;
  json.BeginObject();
  json.Key("correct").Value(checked && deterministic);
  json.Key("attempted").Value(attempted);
  json.Key("failed").Value(failed);
  json.Key("metrics").BeginObject();
  for (const Metric& m : metrics) {
    json.Key(m.name).BeginObject();
    json.Key("value").Value(m.value);
    json.Key("unit").Value(m.unit);
    json.EndObject();
  }
  json.EndObject();
  json.EndObject();
  std::printf("%s\n", json.str().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
