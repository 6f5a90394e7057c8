// palladium_bench: the repo's seeded end-to-end benchmark.
//
//   palladium_bench --workload <name|all> --seed N --seconds S --trace 0|1
//                   [--trace-dir DIR] [--commit SHA]
//
// Each workload generates its inputs from the seed, then runs rounds — a
// fresh machine set up from those inputs, the run phase, and a check of
// every output — until S seconds have passed. Rounds of one workload are
// identical in simulated time, so every round must give the same digest.
// With --trace 1 the rounds alternate between untraced and traced ones; the
// traced rounds record the benchmark's spans and attach the cycle profiler
// and flight recorder, and must retire exactly what the untraced ones did.
//
// The last line of stdout is one JSON object: {"correct", "attempted",
// "failed", "metrics"}; the metrics are the end-to-end set with --trace 0
// and the per-layer set with --trace 1. A wrong output or a determinism
// mismatch makes the exit code 1.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "perfbench/src/common.h"
#include "perfbench/src/workloads.h"
#include "src/hw/cycle_model.h"
#include "src/obs/profile.h"
#include "src/obs/trace.h"

extern char** environ;

namespace perfbench {

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"filter-1cpu", "web-4cpu", "ext-compute",
                                                 "upgrade-churn"};
  return names;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name, u64 seed) {
  if (name == "filter-1cpu") return MakeFilterWorkload(seed);
  if (name == "web-4cpu") return MakeWebWorkload(seed);
  if (name == "ext-compute") return MakeExtWorkload(seed);
  if (name == "upgrade-churn") return MakeUpgradeWorkload(seed);
  return nullptr;
}

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Must list the same metrics, in the same units, as BENCHMARK.json.
constexpr MetricDef kEndToEnd[] = {
    {"host_items_per_s", "items/s"},   {"sim_mips", "Minsn/s"},
    {"setup_s", "s"},                  {"peak_rss_mb", "MiB"},
    {"sim_cycles_per_item", "cycles"}, {"sim_latency_p50_us", "us"},
    {"sim_latency_p99_us", "us"},
};

constexpr MetricDef kPerLayer[] = {
    // isa + hw/cpu: the execution engine
    {"isa.insns", "count"},
    {"isa.block.insns_per_entry", "insn"},
    {"isa.trace.insns_per_entry", "insn"},
    {"isa.trace.flag_mat_ratio", "ratio"},
    {"isa.trace.promotions", "count"},
    {"isa.decode.builds", "count"},
    {"isa.decode.write_invalidations", "count"},
    {"isa.decode.evictions", "count"},
    // hw/tlb, hw/dtlb
    {"hw.tlb.miss_ratio", "ratio"},
    {"hw.dtlb.miss_ratio", "ratio"},
    {"profile.tlb_miss_cycles_per_item", "cycles"},
    // kernel + sched
    {"kernel.sched.run_s", "s"},
    {"kernel.run_process_s", "s"},
    {"profile.kernel_cycles_per_item", "cycles"},
    {"profile.irq_cycles_per_item", "cycles"},
    {"profile.user_cycles_per_item", "cycles"},
    {"kernel.sched.ctx_switches_per_item", "count"},
    {"kernel.sched.preemptions", "count"},
    {"kernel.sched.idle_jumps", "count"},
    // hw/smp
    {"hw.smp.host_ns_per_vcpu_kcycle", "ns"},
    {"kernel.sched.steals", "count"},
    {"kernel.smp.shootdown_ipis", "count"},
    {"kernel.smp.ipis_received", "count"},
    // net
    {"net.napi.frames_per_poll", "frames"},
    {"net.filter.frames_per_crossing", "frames"},
    {"net.drops", "count"},
    {"net.filter.aborts", "count"},
    {"net.flow_upgrades", "count"},
    {"net.upgrade_ms_median", "ms"},
    {"net.upgrade_ms_max", "ms"},
    // hw/nic
    {"hw.nic.rx_irqs_per_item", "count"},
    {"hw.nic.rx_irqs_deferred", "count"},
    {"hw.nic.rx_dropped", "count"},
    {"hw.nic.inject_s", "s"},
    // core: kernel_ext, user_ext
    {"core.kext.cycles_per_invocation", "cycles"},
    {"core.kext.invocations_per_item", "count"},
    {"profile.crossing_cycles_per_item", "cycles"},
    {"profile.filter_cycles_per_item", "cycles"},
    {"core.uext.null_call_cycles", "cycles"},
    {"core.load_s", "s"},
    // web
    {"web.http_s", "s"},
    {"web.http_ns_per_request", "ns"},
    {"web.connections", "count"},
    {"web.keepalive_reuses", "count"},
    // asm, filter, dl
    {"asm.assemble_s", "s"},
    {"filter.compile_s", "s"},
    {"dl.loads", "count"},
    {"dl.unloads", "count"},
    {"core.kext.unloads", "count"},
    // host self time per benchmark span (span minus its child spans)
    {"host.self_s.setup", "s"},
    {"host.self_s.machine.boot", "s"},
    {"host.self_s.asm.assemble", "s"},
    {"host.self_s.kernel.load_image", "s"},
    {"host.self_s.filter.compile", "s"},
    {"host.self_s.core.load", "s"},
    {"host.self_s.nic.inject", "s"},
    {"host.self_s.kernel.sched.run", "s"},
    {"host.self_s.kernel.run_process", "s"},
    {"host.self_s.web.http", "s"},
    {"host.self_s.net.upgrade", "s"},
    {"host.self_s.dl.swap", "s"},
    {"host.self_s.check", "s"},
    // the run as a whole
    {"trace_overhead_ratio", "ratio"},
    {"fail_ratio", "ratio"},
    {"sim_latency_samples", "count"},
};

struct Options {
  std::string workload;
  u64 seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string trace_dir;
  std::string commit = "unknown";
};

[[noreturn]] void Usage(const char* argv0, const std::string& why) {
  std::fprintf(stderr,
               "%s\nusage: %s --workload <name|all> --seed N --seconds S --trace 0|1 "
               "[--trace-dir DIR] [--commit SHA]\nworkloads:",
               why.c_str(), argv0);
  for (const std::string& n : WorkloadNames()) std::fprintf(stderr, " %s", n.c_str());
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Options ParseArgs(int argc, char** argv) {
  Options o;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) Usage(argv[0], "missing value for " + a);
    const std::string v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v.c_str(), &end, 10);
      have_seed = end != v.c_str() && *end == '\0';
    } else if (a == "--seconds") {
      o.seconds = std::strtod(v.c_str(), &end);
      have_seconds = end != v.c_str() && *end == '\0' && o.seconds > 0 && o.seconds <= 3600;
    } else if (a == "--trace") {
      have_trace = v == "0" || v == "1";
      o.trace = v == "1";
    } else if (a == "--trace-dir") {
      o.trace_dir = v;
    } else if (a == "--commit") {
      o.commit = v;
    } else {
      Usage(argv[0], "unknown argument " + a);
    }
  }
  if (o.workload.empty() || !have_seed || !have_seconds || !have_trace) {
    Usage(argv[0], "--workload, --seed, --seconds (0 < S <= 3600) and --trace are required");
  }
  const std::vector<std::string>& names = WorkloadNames();
  if (o.workload != "all" && std::find(names.begin(), names.end(), o.workload) == names.end()) {
    Usage(argv[0], "unknown workload " + o.workload);
  }
  return o;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

// Records the run context. PALLADIUM_* variables are recorded and then
// cleared, so none of them can change what a workload runs; any present
// marks the run as not comparable with runs made without them.
std::string RunContext(const Options& o) {
  std::vector<std::string> vars;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "PALLADIUM_", 10) == 0) vars.emplace_back(*e);
  }
  std::string warnings;
  for (const std::string& kv : vars) {
    const std::string name = kv.substr(0, kv.find('='));
    if (name == "PALLADIUM_HOST_THREADS") {
      warnings = "PALLADIUM_HOST_THREADS is set, but Scheduler-driven workloads ignore it";
      std::fprintf(stderr, "warning: %s\n", warnings.c_str());
    }
    unsetenv(name.c_str());
  }
  std::string json = "{\"nproc\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
                     ", \"build_type\": \"" PERFBENCH_BUILD_TYPE "\", \"compiler\": \"" +
                     JsonEscape(PERFBENCH_COMPILER) + "\", \"commit\": \"" +
                     JsonEscape(o.commit) + "\", \"seed\": " + std::to_string(o.seed) +
                     ", \"seconds\": " + std::to_string(o.seconds) +
                     ", \"comparable\": " + (vars.empty() ? "true" : "false") +
                     ", \"palladium_env\": [";
  for (size_t i = 0; i < vars.size(); ++i) {
    json += (i ? ", \"" : "\"") + JsonEscape(vars[i]) + "\"";
  }
  json += "], \"warnings\": [";
  if (!warnings.empty()) json += "\"" + JsonEscape(warnings) + "\"";
  return json + "]}";
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

struct TracedRound {
  RoundResult result;
  std::map<std::string, double> total;
  std::map<std::string, double> self;
};

struct Collected {
  std::vector<RoundResult> plain;
  std::vector<TracedRound> traced;
  bool correct = true;
  u64 attempted = 0, failed = 0;
  u64 digest = 0;
};

// Runs rounds until `seconds` have passed (at least one untraced round, and
// one traced round when tracing). The last traced round's spans and flight
// recorder are written under `trace_dir` once the rounds are done.
Collected RunRounds(Workload& w, const std::string& name, const Options& o, bool trace) {
  Collected c;
  const Stopwatch clock;
  bool next_traced = false;
  std::map<std::string, u64> first_counters;
  size_t first_chunks = 0;  // chunk i must be the same work in every round
  Spans last_spans;
  palladium::obs::FlightRecorder last_recorder;
  for (;;) {
    const bool traced = trace && next_traced;
    next_traced = !next_traced;
    Spans spans;
    spans.Reset(traced);
    palladium::obs::CycleProfile profile;
    palladium::obs::FlightRecorder recorder;
    Telemetry telemetry;
    if (traced) telemetry = Telemetry{&profile, &recorder};
    RoundResult r = w.Round(spans, telemetry);

    const u64 digest = Digest(r);
    if (c.plain.empty() && c.traced.empty()) {
      c.digest = digest;
      first_counters = r.final_counters;
      first_chunks = r.run_chunks_s.size();
    } else if (digest != c.digest || r.final_counters != first_counters ||
               r.run_chunks_s.size() != first_chunks) {
      r.Fail(std::string(traced ? "traced" : "untraced") +
             " round differs in simulated state from the first round");
    }
    std::printf("%s: round %zu%s setup_s %.6f run_s %.6f\n", name.c_str(),
                c.plain.size() + c.traced.size(), traced ? " traced" : "", r.setup_s, r.run_s);
    for (const std::string& e : r.errors) {
      std::fprintf(stderr, "%s: CHECK FAILED: %s\n", name.c_str(), e.c_str());
    }
    c.correct = c.correct && r.correct;
    c.attempted += r.attempted;
    c.failed += r.failed;
    // Later rounds repeat the first one's latencies (the digest covers them);
    // keeping them would grow the peak RSS with the number of rounds.
    if (traced ? !c.traced.empty() : !c.plain.empty()) std::vector<u64>().swap(r.latencies);
    if (traced) {
      c.traced.push_back(TracedRound{std::move(r), spans.TotalSeconds(), spans.SelfSeconds()});
      last_spans = std::move(spans);
      last_recorder = std::move(recorder);
    } else {
      c.plain.push_back(std::move(r));
    }
    if (!c.correct) break;
    if (clock.Seconds() >= o.seconds && !c.plain.empty() && (!trace || !c.traced.empty())) {
      break;
    }
  }
  if (!c.traced.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(o.trace_dir, ec);
    const std::string base = o.trace_dir + "/" + name + "-seed" + std::to_string(o.seed);
    if (!last_spans.WriteChrome(base + ".trace.json", name) ||
        !last_recorder.WriteJsonl(base + ".recorder.jsonl")) {
      std::fprintf(stderr, "warning: cannot write traces under %s\n", o.trace_dir.c_str());
    } else {
      std::printf("%s: traces written to %s.{trace.json,recorder.jsonl}\n", name.c_str(),
                  base.c_str());
    }
  }
  return c;
}

// Host speed on a shared VM changes from moment to moment with the load
// other tenants put on the caches and memory this core shares: the same
// chunk of a round runs up to ~1.7x slower in a busy moment than in a quiet
// one, and busy spells last from milliseconds to whole runs. Host rates
// therefore use the run phase as its quietest moments ran it: for each
// RunClock chunk, its fastest time over the rounds, summed over the chunks.
double QuietRunSeconds(const std::vector<RoundResult>& rounds) {
  double total = 0;
  for (size_t i = 0; i < rounds.front().run_chunks_s.size(); ++i) {
    double fastest = rounds.front().run_chunks_s[i];
    for (const RoundResult& r : rounds) fastest = std::min(fastest, r.run_chunks_s[i]);
    total += fastest;
  }
  return total;
}

std::map<std::string, double> EndToEnd(const Collected& c) {
  std::map<std::string, double> m;
  std::vector<double> setup;
  for (const RoundResult& r : c.plain) setup.push_back(r.setup_s);
  // Every round does the same work (the digest check guarantees it).
  const RoundResult& r0 = c.plain.front();
  const double quiet_run_s = QuietRunSeconds(c.plain);
  std::vector<u64> lat = r0.latencies;
  std::sort(lat.begin(), lat.end());
  m["host_items_per_s"] = Ratio(static_cast<double>(r0.served), quiet_run_s);
  m["sim_mips"] = Ratio(static_cast<double>(r0.sim_insns), quiet_run_s) / 1e6;
  m["setup_s"] = Median(setup);
  m["peak_rss_mb"] = PeakRssMb();
  m["sim_cycles_per_item"] = Ratio(static_cast<double>(r0.busy_cycles), r0.served);
  m["sim_latency_p50_us"] = static_cast<double>(Percentile(lat, 50)) / kCpuMhz;
  m["sim_latency_p99_us"] = static_cast<double>(Percentile(lat, 99)) / kCpuMhz;
  return m;
}

std::map<std::string, double> PerLayer(const Collected& c) {
  std::map<std::string, double> m;
  const RoundResult& t0 = c.traced.front().result;
  const auto& d = t0.delta;
  auto get = [&](const std::string& k) {
    auto it = d.find(k);
    return it == d.end() ? 0.0 : static_cast<double>(it->second);
  };
  auto cpu = [&](const std::string& suffix) { return static_cast<double>(SumCpu(d, suffix)); };
  auto extra = [&](const std::string& k) {
    auto it = t0.extra.find(k);
    return it == t0.extra.end() ? 0.0 : it->second;
  };
  // Host times: median over the traced rounds.
  auto total = [&](const std::string& span) {
    std::vector<double> v;
    for (const TracedRound& t : c.traced) {
      auto it = t.total.find(span);
      v.push_back(it == t.total.end() ? 0.0 : it->second);
    }
    return Median(v);
  };
  const double items = static_cast<double>(t0.served);

  m["isa.insns"] = cpu("instructions_retired");
  m["isa.block.insns_per_entry"] = Ratio(cpu("block.insns"), cpu("block.entries"));
  m["isa.trace.insns_per_entry"] = Ratio(cpu("trace.uop_insns"), cpu("trace.entries"));
  m["isa.trace.flag_mat_ratio"] =
      Ratio(cpu("trace.flag_materializations"), cpu("trace.entries"));
  m["isa.trace.promotions"] = cpu("trace.promotions");
  m["isa.decode.builds"] = cpu("decode.builds");
  m["isa.decode.write_invalidations"] = cpu("decode.write_invalidations");
  m["isa.decode.evictions"] = cpu("decode.evictions");

  m["hw.tlb.miss_ratio"] = Ratio(cpu("tlb.misses"), cpu("tlb.hits") + cpu("tlb.misses"));
  m["hw.dtlb.miss_ratio"] = Ratio(cpu("dtlb.misses"), cpu("dtlb.hits") + cpu("dtlb.misses"));
  // Every TLB miss charges exactly the model's penalty, so the miss cycles
  // follow from the counters, also where no profiler runs.
  m["profile.tlb_miss_cycles_per_item"] =
      Ratio(cpu("tlb.misses") * palladium::CycleModel::Measured().tlb_miss_penalty, items);
  for (const char* cat : {"kernel", "irq", "user", "crossing"}) {
    m[std::string("profile.") + cat + "_cycles_per_item"] =
        Ratio(extra(std::string("profile.") + cat + "_cycles"), items);
  }
  m["profile.filter_cycles_per_item"] = Ratio(extra("profile.filter_body_cycles"), items);

  m["kernel.sched.run_s"] = total("kernel.sched.run");
  m["kernel.run_process_s"] = total("kernel.run_process");
  m["kernel.sched.ctx_switches_per_item"] = Ratio(get("sched.context_switches"), items);
  m["kernel.sched.preemptions"] = get("sched.preemptions");
  m["kernel.sched.idle_jumps"] = get("sched.idle_jumps");

  const double vcpu_kcycles = static_cast<double>(t0.num_cpus) * t0.wall_cycles / 1e3;
  m["hw.smp.host_ns_per_vcpu_kcycle"] =
      Ratio((total("kernel.sched.run") + total("kernel.run_process")) * 1e9, vcpu_kcycles);
  m["kernel.sched.steals"] = get("sched.steals");
  m["kernel.smp.shootdown_ipis"] = get("kernel.smp.shootdown_ipis");
  m["kernel.smp.ipis_received"] = get("kernel.smp.ipis_received");

  m["net.napi.frames_per_poll"] =
      Ratio(get("dataplane.napi_frames"), get("dataplane.napi_polls"));
  m["net.filter.frames_per_crossing"] =
      Ratio(get("dataplane.filter_frames"), get("dataplane.filter_invocations"));
  m["net.drops"] = get("dataplane.dropped_queue_full") + get("dataplane.dropped_dead_dest") +
                   get("dataplane.dropped_backlog_full") + get("nic.rx_dropped");
  m["net.filter.aborts"] = get("dataplane.filter_aborts");
  m["net.flow_upgrades"] = get("dataplane.flow_upgrades");
  std::vector<double> up = t0.upgrade_ms;
  m["net.upgrade_ms_median"] = Median(up);
  m["net.upgrade_ms_max"] = up.empty() ? 0.0 : *std::max_element(up.begin(), up.end());

  m["hw.nic.rx_irqs_per_item"] = Ratio(get("dataplane.nic_irqs"), items);
  m["hw.nic.rx_irqs_deferred"] = get("nic.rx_irqs_deferred");
  m["hw.nic.rx_dropped"] = get("nic.rx_dropped");
  m["hw.nic.inject_s"] = total("nic.inject");

  m["core.kext.cycles_per_invocation"] =
      Ratio(get("kext.invoke_cycles"), get("kext.invocations"));
  m["core.kext.invocations_per_item"] = Ratio(get("kext.invocations"), items);
  m["core.uext.null_call_cycles"] = extra("core.uext.null_call_cycles");
  m["core.load_s"] = total("core.load");

  m["web.http_s"] = total("web.http");
  m["web.http_ns_per_request"] = Ratio(extra("web.http_s") * 1e9, items);
  m["web.connections"] = extra("web.connections");
  m["web.keepalive_reuses"] = extra("web.keepalive_reuses");

  m["asm.assemble_s"] = total("asm.assemble");
  m["filter.compile_s"] = total("filter.compile");
  m["dl.loads"] = get("dl.loads");
  m["dl.unloads"] = get("dl.unloads");
  m["core.kext.unloads"] = get("kext.unloads");

  for (const MetricDef& def : kPerLayer) {
    const std::string n = def.name;
    if (n.compare(0, 12, "host.self_s.") != 0) continue;
    std::vector<double> v;
    for (const TracedRound& t : c.traced) {
      auto it = t.self.find(n.substr(12));
      v.push_back(it == t.self.end() ? 0.0 : it->second);
    }
    m[n] = Median(v);
  }

  std::vector<double> plain_run, traced_run;
  for (const RoundResult& r : c.plain) plain_run.push_back(r.run_s);
  for (const TracedRound& t : c.traced) traced_run.push_back(t.result.run_s);
  m["trace_overhead_ratio"] = Ratio(Median(traced_run), Median(plain_run));
  m["fail_ratio"] = Ratio(static_cast<double>(t0.failed), static_cast<double>(t0.attempted));
  m["sim_latency_samples"] = static_cast<double>(t0.latencies.size());
  return m;
}

std::string Num(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void AppendMetrics(const std::string& prefix, const MetricDef* defs, size_t n,
                   const std::map<std::string, double>& values, std::string* json) {
  for (size_t i = 0; i < n; ++i) {
    auto it = values.find(defs[i].name);
    const double v = it == values.end() ? 0.0 : it->second;
    if (json->back() != '{') *json += ", ";
    *json += "\"" + prefix + defs[i].name + "\": {\"value\": " + Num(v) + ", \"unit\": \"" +
             defs[i].unit + "\"}";
    std::printf("  %-40s %20.6f %s\n", defs[i].name, v, defs[i].unit);
  }
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options o = ParseArgs(argc, argv);
  if (o.trace_dir.empty()) {
    o.trace_dir = (std::filesystem::path(argv[0]).parent_path() / "traces").string();
  }
  std::printf("context: %s\n", RunContext(o).c_str());

  const bool all = o.workload == "all";
  const std::vector<std::string> names =
      all ? WorkloadNames() : std::vector<std::string>{o.workload};
  bool correct = true;
  u64 attempted = 0, failed = 0;
  std::string metrics = "{";
  for (const std::string& name : names) {
    const Stopwatch gen;
    std::unique_ptr<Workload> w = MakeWorkload(name, o.seed);
    std::printf("%s: inputs generated in %.3f s\n", name.c_str(), gen.Seconds());
    // `all` runs every workload traced and untraced and prints both sets.
    const Collected c = RunRounds(*w, name, o, all || o.trace);
    correct = correct && c.correct;
    attempted += c.attempted;
    failed += c.failed;
    std::printf("%s: digest %016llx over %zu untraced + %zu traced rounds, %s\n", name.c_str(),
                static_cast<unsigned long long>(c.digest), c.plain.size(), c.traced.size(),
                c.correct ? "all outputs correct" : "OUTPUT CHECKS FAILED");
    if (!c.correct) break;
    const RoundResult& r0 = c.plain.front();
    std::printf("%s: %llu of %llu items served, vCPUs busy %.1f%% of the run phase\n",
                name.c_str(), static_cast<unsigned long long>(r0.served),
                static_cast<unsigned long long>(r0.attempted),
                100.0 * Ratio(static_cast<double>(r0.busy_cycles),
                              static_cast<double>(r0.num_cpus) * r0.wall_cycles));
    const std::string prefix = all ? name + "/" : "";
    if (all || !o.trace) {
      std::printf("%s end-to-end:\n", name.c_str());
      AppendMetrics(prefix, kEndToEnd, std::size(kEndToEnd), EndToEnd(c), &metrics);
    }
    if (all || o.trace) {
      std::printf("%s per-layer:\n", name.c_str());
      AppendMetrics(prefix, kPerLayer, std::size(kPerLayer), PerLayer(c), &metrics);
    }
  }
  metrics += "}";
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), metrics.c_str());
  return correct ? 0 : 1;
}
