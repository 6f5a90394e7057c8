// web-4cpu: the interrupt-driven web server assembled from public parts —
// a 4-vCPU Machine, Kernel, Scheduler, a 4-queue RSS Nic, the protected
// filter dataplane with flow-hash steering, and a TX hook that runs the HTTP
// layer (HttpRequest::Parse, HttpResponse::FormatHead) — so set-up and the
// HTTP layer are timed apart from Scheduler::RunAll.
#include <algorithm>
#include <cstdlib>
#include <string>
#include <unordered_map>
#include <vector>

#include "perfbench/src/workloads.h"
#include "src/asm/assembler.h"
#include "src/core/kernel_ext.h"
#include "src/filter/filter.h"
#include "src/hw/nic.h"
#include "src/kernel/sched.h"
#include "src/net/dataplane.h"
#include "src/net/packet.h"
#include "src/obs/profile.h"
#include "src/web/http.h"

namespace perfbench {
namespace {

using namespace palladium;

constexpr u32 kCpus = 4;
constexpr u32 kWorkers = 8;
constexpr u32 kRequests = 40'000;   // per round: ~32k distinct client flows
constexpr double kMeanGap = 3'030.0;    // cycles: ~66k req/s offered at 200 MHz
constexpr double kFreshShare = 0.8;     // requests that open a new connection
constexpr u64 kHttpServiceCycles = 2'000;  // parse + format, charged to the sender
constexpr u32 kBodyBytes = 256;
constexpr u32 kChunkRequests = 250;  // served requests per RunClock chunk

// The server process: receive a request, read every byte of it in
// simulated code, send it on to the HTTP layer, until shutdown.
constexpr char kWebWorkerSource[] = R"(
  .global main
main:
  mov $90, %eax           ; SYS_MMAP
  mov $0, %ebx
  mov $4096, %ecx
  mov $3, %edx
  int $0x80
  mov %eax, %esi          ; request buffer
  mov $0, %edi            ; served counter
loop:
  mov $220, %eax          ; SYS_PKT_RECV
  mov %esi, %ebx
  mov $2048, %ecx
  mov $0, %edx
  int $0x80
  cmp $0, %eax
  jl done
  push %eax
  mov %eax, %ecx
  mov %esi, %ebp
  mov $0, %edx
csum:
  cmp $0, %ecx
  je send
  ld8 0(%ebp), %eax
  add %eax, %edx
  add $1, %ebp
  dec %ecx
  jmp csum
send:
  mov $221, %eax          ; SYS_PKT_SEND
  mov %esi, %ebx
  pop %ecx
  int $0x80
  inc %edi
  jmp loop
done:
  mov $1, %eax            ; SYS_EXIT
  mov %edi, %ebx
  int $0x80
)";

u32 ClientIp(u32 client) { return 0x0A010000u + (client >> 10); }
u16 ClientPort(u32 client) { return static_cast<u16>(1024 + (client & 1023)); }

class WebWorkload : public Workload {
 public:
  explicit WebWorkload(u64 seed) { Generate(seed); }
  RoundResult Round(Spans& spans, const Telemetry& telemetry) override;

 private:
  void Generate(u64 seed);

  std::vector<std::vector<u8>> frames_;
  std::vector<u64> arrival_;
  std::vector<u32> client_;
  u32 clients_ = 0;
};

void WebWorkload::Generate(u64 seed) {
  Rng rng(seed);
  frames_.reserve(kRequests);
  double at = 10'000;
  for (u32 i = 0; i < kRequests; ++i) {
    // 80% of requests open a connection from a new client; the rest reuse
    // a keep-alive connection of a client seen before.
    const bool fresh = clients_ == 0 || rng.Unit() < kFreshShare;
    const u32 c = fresh ? clients_++ : static_cast<u32>(rng.Below(clients_));
    PacketSpec spec;
    spec.proto = kIpProtoTcp;
    spec.src_ip = ClientIp(c);
    spec.src_port = ClientPort(c);
    spec.dst_ip = 0x0A000001u;
    spec.dst_port = 80;
    const std::string req = "GET /doc-" + std::to_string(i) +
                            " HTTP/1.0\r\nHost: palladium-sim\r\nUser-Agent: client-" +
                            std::to_string(c) + "\r\nConnection: keep-alive\r\n\r\n";
    frames_.push_back(BuildPacketWithPayload(spec, req.data(), static_cast<u32>(req.size())));
    arrival_.push_back(static_cast<u64>(at));
    client_.push_back(c);
    at += std::max(1.0, rng.Exponential(kMeanGap));
  }
}

// The client's view of a response: it must parse as a 200 for the document
// that request `id` asked for, addressed back to the requesting client.
bool ResponseMatches(const std::vector<u8>& frame, u64 id, u32 client) {
  const u32 off = PayloadOffset(kIpProtoTcp);
  if (frame.size() <= off || ReadBe32(&frame[kOffIpDst]) != ClientIp(client) ||
      ReadBe16(&frame[kOffDstPort]) != ClientPort(client)) {
    return false;
  }
  const std::string text(frame.begin() + off, frame.end());
  const std::string want = "HTTP/1.0 200 OK\r\nContent-Location: /doc-" + std::to_string(id) +
                           "\r\nContent-Length: " + std::to_string(kBodyBytes) + "\r\n\r\n";
  return text == want;
}

RoundResult WebWorkload::Round(Spans& spans, const Telemetry& telemetry) {
  RoundResult r;
  const Stopwatch setup_clock;
  Scope round_span(spans, "round");
  auto setup_span = std::make_unique<Scope>(spans, "setup");

  std::unique_ptr<Machine> machine;
  std::unique_ptr<Kernel> kernel;
  std::unique_ptr<KernelExtensionManager> kext;
  std::unique_ptr<Scheduler> sched;
  std::unique_ptr<Nic> nic;
  std::unique_ptr<PacketDataplane> dp;
  {
    Scope s(spans, "machine.boot");
    MachineConfig mcfg;
    mcfg.num_cpus = kCpus;
    mcfg.physical_memory_bytes = kMachineMemoryBytes;
    machine = std::make_unique<Machine>(mcfg);
    Kernel::Config kcfg;
    kcfg.timer_period_cycles = 20'000;
    kernel = std::make_unique<Kernel>(*machine, kcfg);
    kext = std::make_unique<KernelExtensionManager>(*kernel);
    Scheduler::Config scfg;
    scfg.slice_cycles = 60'000;
    sched = std::make_unique<Scheduler>(*kernel, scfg);
    nic = std::make_unique<Nic>(machine->pm(), kernel->pic(), kIrqNic);
    PacketDataplane::Config dcfg;
    dcfg.queues = kCpus;
    dcfg.steering = FlowSteering::kFlowHash;
    dcfg.napi = true;
    dcfg.filter_batch = 32;
    dcfg.rx_irq_moderation = 16'000;
    dp = std::make_unique<PacketDataplane>(*kernel, *kext, *nic, dcfg);
  }

  std::optional<LinkedImage> worker;
  {
    Scope s(spans, "asm.assemble");
    std::string diag;
    worker = AssembleAndLink(kWebWorkerSource, kUserTextBase, {}, &diag);
    if (!worker) {
      r.Fail("assemble worker: " + diag);
      return r;
    }
  }
  std::vector<Pid> pids;
  {
    Scope s(spans, "kernel.load_image");
    std::string diag;
    for (u32 w = 0; w < kWorkers; ++w) {
      const Pid pid = kernel->CreateProcess();
      if (pid == 0 || !kernel->LoadUserImage(pid, *worker, "main", &diag)) {
        r.Fail("load worker: " + diag);
        return r;
      }
      pids.push_back(pid);
      sched->AddProcess(pid);
    }
  }
  constexpr const char* kHttpFilter = "ip.proto == 6 && tcp.dport == 80";
  {
    Scope s(spans, "filter.compile");
    std::string err;
    if (!ParseFilter(kHttpFilter, &err)) {
      r.Fail("parse filter: " + err);
      return r;
    }
  }
  {
    Scope s(spans, "core.load");
    std::string diag;
    if (!dp->AddFlow("http", kHttpFilter, pids, &diag)) {
      r.Fail("add flow: " + diag);
      return r;
    }
  }

  // The HTTP layer on the send path, keyed by /doc-<id>; a connection table
  // over client 5-tuples counts keep-alive reuse.
  std::unordered_map<u64, u32> connections;
  connections.reserve(kRequests);
  u64 keepalive = 0;
  double http_s = 0;
  std::vector<u8> seen(frames_.size(), 0);
  r.latencies.reserve(frames_.size());
  RunClock run_clock(kChunkRequests);
  dp->set_tx_hook([&](Kernel& k, Process&, const std::vector<u8>& frame) {
    const u32 off = PayloadOffset(kIpProtoTcp);
    if (frame.size() <= off) {
      r.Fail("a worker sent a frame with no HTTP payload");
      return frame;
    }
    std::vector<u8> response;
    u64 id = ~0ull;
    {
      Scope s(spans, "web.http");
      const Stopwatch t;
      k.Charge(kHttpServiceCycles);
      auto req = HttpRequest::Parse(std::string(frame.begin() + off, frame.end()));
      HttpResponse resp;
      resp.body_bytes = kBodyBytes;
      if (req && req->path.compare(0, 5, "/doc-") == 0) {
        id = std::strtoull(req->path.c_str() + 5, nullptr, 10);
        resp.headers["Content-Location"] = req->path;
        const u64 key = (static_cast<u64>(ReadBe32(&frame[kOffIpSrc])) << 16) |
                        ReadBe16(&frame[kOffSrcPort]);
        if (!connections.emplace(key, 1).second) ++keepalive;
      } else {
        resp.status = 400;
        resp.reason = "Bad Request";
        resp.body_bytes = 0;
      }
      const std::string head = resp.FormatHead();
      PacketSpec out;
      out.src_ip = ReadBe32(&frame[kOffIpDst]);
      out.dst_ip = ReadBe32(&frame[kOffIpSrc]);
      out.src_port = 80;
      out.dst_port = ReadBe16(&frame[kOffSrcPort]);
      response = BuildPacketWithPayload(out, head.data(), static_cast<u32>(head.size()));
      http_s += t.Seconds();
    }
    if (id >= frames_.size() || frame != frames_[id]) {
      r.Fail("request " + std::to_string(id) + " did not reach the HTTP layer intact");
      return response;
    }
    if (!ResponseMatches(response, id, client_[id])) {
      r.Fail("response to /doc-" + std::to_string(id) + " does not match its request");
    }
    if (seen[id]++ != 0) r.Fail("request " + std::to_string(id) + " served twice");
    const u64 now = k.machine().cpu().cycles();
    r.latencies.push_back(now - arrival_[id]);
    spans.Sim("request", id, arrival_[id], now, k.machine().current_cpu_index());
    run_clock.Item();
    return response;
  });
  bool shutdown_issued = false;
  sched->set_idle_hook([&]() {
    if (shutdown_issued) return false;
    shutdown_issued = true;
    dp->Shutdown();
    return true;
  });
  {
    Scope s(spans, "nic.inject");
    for (size_t i = 0; i < frames_.size(); ++i) {
      nic->Inject(frames_[i].data(), static_cast<u32>(frames_[i].size()), arrival_[i]);
    }
  }
  setup_span.reset();
  r.setup_s = setup_clock.Seconds();

  if (telemetry.profile != nullptr || telemetry.recorder != nullptr) {
    AttachTelemetry(*kernel, nic.get(), telemetry);
  }
  std::map<std::string, u64> before;
  SnapshotCounters(*kernel, sched.get(), nic.get(), dp.get(), kext.get(), nullptr, &before);
  Scheduler::RunAllResult run;
  {
    Scope s(spans, "run");
    run_clock.Start();
    {
      Scope ss(spans, "kernel.sched.run");
      run = sched->RunAll(60'000'000'000ull);
    }
    r.SetRun(run_clock.Stop());
  }
  Scope check_span(spans, "check");
  nic->FlushTx();
  SnapshotCounters(*kernel, sched.get(), nic.get(), dp.get(), kext.get(), nullptr,
                   &r.final_counters);
  r.delta = CounterDelta(before, r.final_counters);
  CollectProfile(telemetry, &r);

  r.num_cpus = machine->num_cpus();
  r.wall_cycles = run.cycles;  // RunAll reports the run phase alone
  r.busy_cycles = obs::BusyCycles(r.num_cpus, r.wall_cycles, r.delta["sched.idle_cycles"]);
  r.sim_insns = SumCpu(r.delta, "instructions_retired");
  r.attempted = frames_.size();
  for (u8 s : seen) r.served += s != 0 ? 1 : 0;
  r.failed = r.attempted - std::min(r.attempted, r.served);
  r.extra["web.http_s"] = http_s;
  r.extra["web.connections"] = static_cast<double>(connections.size());
  r.extra["web.keepalive_reuses"] = static_cast<double>(keepalive);

  if (dp->stats().tx_frames != r.served) r.Fail("TX frame count differs from responses checked");
  if (run.exited != kWorkers) r.Fail("not every worker exited");
  if (r.failed == 0 && (connections.size() != clients_ || keepalive != kRequests - clients_)) {
    r.Fail("connection table saw " + std::to_string(connections.size()) + " connections / " +
           std::to_string(keepalive) + " reuses, want " + std::to_string(clients_) + " / " +
           std::to_string(kRequests - clients_));
  }
  return r;
}

}  // namespace

std::unique_ptr<Workload> MakeWebWorkload(u64 seed) {
  return std::make_unique<WebWorkload>(seed);
}

}  // namespace perfbench
