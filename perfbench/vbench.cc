// vbench: one iteration of one end-to-end benchmark workload.
//
//   vbench --workload <name> --seed <n> [--trace 0|1]
//
// Builds the workload's cluster through the public apps::Cluster builder,
// runs its timed phase with run_job, verifies every byte read against
// mem::Buffer::deterministic, and prints ONE JSON object on stdout:
//
//   "sim"    simulated metrics and counters: a pure function of the seed
//            (run.py checks that repeated and traced runs agree);
//   "host"   host-clock spans and peak RSS: setup_s splits into the
//            apps.setup.* builder spans; sim.run_s (all of run_job) splits
//            into wall_s, mem.verify_s (checking the bytes read) and the
//            generation of the write payload;
//   "traced_metrics"  per-read decompositions from trace::aggregate
//            (traced runs only).
//
// Simulated time ("sim") is what the modeled hardware takes; host time is
// what the simulator takes. Every read's completion time and every
// phase's end are stamped inside the benchmark's own tasks, never read
// from sim.now() after run_job (which advances in coarse slices).
//
// The model is not validated against hardware here: accuracy against the
// paper stays with the per-figure benches under bench/.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "apps/cluster.h"
#include "cluster/route.h"
#include "core/vread_daemon.h"
#include "hdfs/dfs_client.h"
#include "hdfs/read_request.h"
#include "mem/buffer.h"
#include "metrics/accounting.h"
#include "metrics/categories.h"
#include "metrics/registry.h"
#include "sim/simulation.h"
#include "sim/sync.h"
#include "sim/time.h"
#include "trace/aggregate.h"
#include "trace/tracer.h"

namespace vread::perfbench {
namespace {

using apps::Cluster;
using apps::ClusterConfig;
using metrics::CycleCategory;
using sim::SimTime;
using Clock = std::chrono::steady_clock;

constexpr std::uint64_t kMiB = 1024 * 1024;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// SplitMix64 over (a, b): every seeded draw in the workloads.
std::uint64_t mix64(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a + 0x9e3779b97f4a7c15ULL * (b + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Uniform in (0, 1].
double unit(std::uint64_t r) { return static_cast<double>((r >> 11) + 1) * 0x1.0p-53; }

// Exact nearest-rank percentile over sorted samples.
SimTime pct(const std::vector<SimTime>& sorted, double q) {
  if (sorted.empty()) return 0;
  const double rank = std::ceil(q / 100.0 * static_cast<double>(sorted.size()));
  std::size_t idx = rank <= 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return sorted[std::min(idx, sorted.size() - 1)];
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }
double mb(std::uint64_t bytes) { return static_cast<double>(bytes) / 1e6; }
double ms(SimTime t) { return static_cast<double>(t) / 1e6; }

// Everything one iteration measures. Tasks write into it through a
// pointer; it outlives every run_job.
struct Run {
  // Timed reads: latency per request (open loop: from its due time).
  std::vector<SimTime> lat;
  std::uint64_t read_bytes = 0;
  std::uint64_t reads_failed = 0;  // non-ok status, exception or bad bytes
  std::uint64_t write_bytes = 0;
  std::uint64_t writes = 0;
  std::uint64_t writes_failed = 0;
  // Simulated stamps, taken inside the tasks.
  SimTime phase_start = 0;
  SimTime phase_end = 0;
  SimTime write_start = 0;
  SimTime write_end = 0;
  SimTime last_stamp = 0;  // latest completion stamped by any task
  // Cycle ledger over the timed phase, snapshotted inside the tasks.
  metrics::CycleAccounting::Snapshot acct_start;
  metrics::CycleAccounting::Snapshot acct_end;
  // Host time the benchmark spends checking read bytes against
  // Buffer::deterministic, and generating the write payload; both are
  // excluded from wall_s.
  double verify_s = 0.0;
  std::uint64_t verify_bytes = 0;
  double gen_s = 0.0;

  void stamp(SimTime t) { last_stamp = std::max(last_stamp, t); }
};

// Checks `got` against bytes [off, off+len) of deterministic stream
// `file_seed`. The host time it takes is accounted to Run::verify_s.
bool verify(Run* run, const mem::Buffer& got, std::uint64_t file_seed, std::uint64_t off,
            std::uint64_t len) {
  const Clock::time_point t0 = Clock::now();
  const bool ok = got == mem::Buffer::deterministic(file_seed, off, len);
  run->verify_s += seconds_since(t0);
  run->verify_bytes += len;
  return ok;
}

mem::Buffer payload(Run* run, std::uint64_t file_seed, std::uint64_t off, std::uint64_t len) {
  const Clock::time_point t0 = Clock::now();
  mem::Buffer b = mem::Buffer::deterministic(file_seed, off, len);
  run->gen_s += seconds_since(t0);
  return b;
}

// One timed read through the public stream API. Returns false (and counts
// the read failed) on a non-ok status, an HDFS error or wrong bytes.
sim::Task timed_read(Cluster* c, hdfs::DfsInputStream* in, hdfs::ReadRequest req,
                     std::uint64_t file_off, std::uint64_t file_seed, SimTime from, Run* run,
                     bool* ok_out) {
  hdfs::ReadResult res;
  bool ok = true;
  try {
    co_await in->read(req, res);
  } catch (const std::exception&) {
    ok = false;
  }
  const SimTime done = c->sim().now();
  run->stamp(done);
  run->lat.push_back(done - from);
  ok = ok && res.status.ok() && verify(run, res.data, file_seed, file_off, req.len);
  if (ok) {
    run->read_bytes += req.len;
  } else {
    ++run->reads_failed;
  }
  *ok_out = ok;
}

// ---------------------------------------------------------------------------
// Set-up spans and the common report.

// A built bed: the cluster, the host-time spans of the builder calls, the
// hosts and client VMs whose stats make up the layer metrics, and the
// timed job to hand to run_job.
struct Setup {
  std::unique_ptr<Cluster> cluster;
  double topology_s = 0.0;
  double preload_s = 0.0;
  double enable_vread_s = 0.0;
  std::vector<std::string> hosts;
  std::vector<std::string> clients;
  std::function<sim::Task(Run*)> job;
};

class Json {
 public:
  void num(const std::string& k, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    field(k, buf);
  }
  void str(const std::string& k, const std::string& v) { field(k, "\"" + v + "\""); }
  void raw(const std::string& k, const std::string& v) { field(k, v); }
  std::string done() const { return "{" + body_ + "}"; }

 private:
  void field(const std::string& k, const std::string& v) {
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + k + "\": " + v;
  }
  std::string body_;
};

// Cycles every thread charged to `cats` over the timed window.
double window_cycles(const Run& r, std::initializer_list<CycleCategory> cats) {
  double total = 0.0;
  for (std::size_t t = 0; t < r.acct_end.cycles.size(); ++t) {
    for (CycleCategory cat : cats) {
      const auto i = static_cast<std::size_t>(cat);
      const sim::Cycles before = t < r.acct_start.cycles.size() ? r.acct_start.cycles[t][i] : 0;
      total += static_cast<double>(r.acct_end.cycles[t][i] - before);
    }
  }
  return total;
}

// The modeled CPU cost of the work: every category but the background
// lookbusy burn.
double window_work_cycles(const Run& r) {
  double total = 0.0;
  for (std::uint8_t i = 0; i < metrics::kNumCategories; ++i) {
    const auto cat = static_cast<CycleCategory>(i);
    if (cat != CycleCategory::kLookbusy) total += window_cycles(r, {cat});
  }
  return total;
}

// Layer counters read through the public stats accessors, summed over the
// bed's hosts (daemons, disks) and client VMs.
void layer_metrics(Cluster& c, const Setup& s, const Run& r, Json& sim_out) {
  std::uint64_t disk_reads = 0, disk_rb = 0, disk_wb = 0, gc = 0, wstall = 0;
  std::uint64_t c_hits = 0, c_miss = 0, c_evict = 0, c_integrity = 0;
  std::uint64_t co_hits = 0, co_miss = 0, co_fill = 0, batches = 0;
  std::uint64_t p_lookups = 0, p_fetches = 0, p_fetch_bytes = 0, shed = 0;
  std::uint64_t refreshes = 0, lk_hits = 0, lk_miss = 0;
  std::uint64_t remote_reads = 0, remote_retries = 0, failovers = 0;
  for (const std::string& h : s.hosts) {
    const hw::Disk& d = c.host(h)->disk();
    disk_reads += d.read_count();
    disk_rb += d.bytes_read();
    disk_wb += d.bytes_written();
    gc += d.gc_stall_count();
    wstall += d.write_stall_count();
    const core::VReadDaemon* dm = c.daemon(h);
    if (dm == nullptr) continue;
    const core::DaemonStats st = dm->stats_snapshot();
    c_hits += st.cache_hits;
    c_miss += st.cache_misses;
    c_evict += st.cache_evictions;
    c_integrity += dm->cache().integrity_failures();
    co_hits += st.coalesce_hits;
    co_miss += st.coalesce_misses;
    co_fill += st.coalesce_fill_bytes;
    batches += st.disk_batches;
    p_lookups += st.peer_lookups;
    p_fetches += st.peer_fetches;
    p_fetch_bytes += st.peer_fetch_bytes;
    for (const core::QosTenantStats& t : st.tenants) shed += t.shed;
    refreshes += st.refreshes;
    lk_hits += st.mount_lookup_hits;
    lk_miss += st.mount_lookup_misses;
    remote_reads += st.remote_reads;
    remote_retries += st.remote_retries;
    failovers += st.rdma_failovers;
  }
  std::uint64_t vread_reads = 0, all_reads = 0, fallbacks = 0, vfd_hits = 0, vfd_miss = 0;
  std::uint64_t h_launched = 0, h_wins = 0, h_wasted = 0;
  for (const std::string& vm : s.clients) {
    const hdfs::DfsClient* cl = c.client(vm);
    vread_reads += cl->vread_path_reads();
    all_reads += cl->vread_path_reads() + cl->socket_path_reads() + cl->short_circuit_reads();
    fallbacks += cl->vread_fallback_reads();
    vfd_hits += cl->vfd_cache_hits();
    vfd_miss += cl->vfd_cache_misses();
    h_launched += cl->hedge_launched();
    h_wins += cl->hedge_wins();
    h_wasted += cl->hedge_wasted_bytes();
  }
  // The shm ring's counters are reachable only through the registry (one
  // series per client VM); libvread keeps its channel private.
  std::uint64_t slot_waits = 0, shm_timeouts = 0;
  for (const auto& row : metrics::registry().snapshot().rows) {
    if (row.name == "vread_shm_slot_waits_total") slot_waits += row.counter;
    if (row.name == "vread_shm_timeouts_total") shm_timeouts += row.counter;
  }
  const double bytes = static_cast<double>(r.read_bytes + r.write_bytes);
  auto cpb = [&](std::initializer_list<CycleCategory> cats) {
    return ratio(window_cycles(r, cats), bytes);
  };

  sim_out.num("hw.disk.reads", static_cast<double>(disk_reads));
  sim_out.num("hw.disk.read_mb", mb(disk_rb));
  sim_out.num("hw.disk.write_mb", mb(disk_wb));
  sim_out.num("hw.disk.gc_stalls", static_cast<double>(gc));
  sim_out.num("hw.disk.write_stalls", static_cast<double>(wstall));
  sim_out.num("hw.cycles.disk_read", cpb({CycleCategory::kDiskRead}));
  sim_out.num("hw.cycles.disk_write", cpb({CycleCategory::kDiskWrite}));
  sim_out.num("hw.cycles.other", cpb({CycleCategory::kInterrupt, CycleCategory::kHostNet,
                                      CycleCategory::kOther}));
  sim_out.num("virt.cycles.virtio_copy", cpb({CycleCategory::kVirtioCopy}));
  sim_out.num("virt.cycles.vhost_net", cpb({CycleCategory::kVhostNet}));
  sim_out.num("virt.cycles.guest_net",
              cpb({CycleCategory::kGuestNetTx, CycleCategory::kGuestNetRx}));
  sim_out.num("virt.shm.slot_waits", static_cast<double>(slot_waits));
  sim_out.num("virt.shm.timeouts", static_cast<double>(shm_timeouts));
  sim_out.num("virt.net.mb", mb(c.net().bytes_sent()));
  sim_out.num("fs.cycles.loop_device", cpb({CycleCategory::kLoopDevice}));
  sim_out.num("fs.mount.refreshes", static_cast<double>(refreshes));
  sim_out.num("fs.mount.lookup_hit_ratio",
              ratio(static_cast<double>(lk_hits), static_cast<double>(lk_hits + lk_miss)));
  sim_out.num("core.cache.hit_ratio",
              ratio(static_cast<double>(c_hits), static_cast<double>(c_hits + c_miss)));
  sim_out.num("core.cache.evictions", static_cast<double>(c_evict));
  sim_out.num("core.cache.integrity_failures", static_cast<double>(c_integrity));
  sim_out.num("core.coalesce.hit_ratio",
              ratio(static_cast<double>(co_hits), static_cast<double>(co_hits + co_miss)));
  sim_out.num("core.coalesce.fill_mb", mb(co_fill));
  sim_out.num("core.disk_batches", static_cast<double>(batches));
  sim_out.num("core.peer.lookups", static_cast<double>(p_lookups));
  sim_out.num("core.peer.hit_ratio",
              ratio(static_cast<double>(p_fetches), static_cast<double>(p_lookups)));
  sim_out.num("core.peer.fetch_mb", mb(p_fetch_bytes));
  sim_out.num("core.qos.shed", static_cast<double>(shed));
  sim_out.num("core.remote_reads", static_cast<double>(remote_reads));
  sim_out.num("core.remote_retries", static_cast<double>(remote_retries));
  sim_out.num("core.rdma_failovers", static_cast<double>(failovers));
  sim_out.num("core.cycles.vread_buffer_copy", cpb({CycleCategory::kVreadBufferCopy}));
  sim_out.num("core.cycles.rdma", cpb({CycleCategory::kRdma}));
  sim_out.num("core.cycles.vread_net", cpb({CycleCategory::kVreadNet}));
  sim_out.num("hdfs.reads.vread_share",
              ratio(static_cast<double>(vread_reads), static_cast<double>(all_reads)));
  sim_out.num("hdfs.fallback_reads", static_cast<double>(fallbacks));
  sim_out.num("hdfs.vfd_cache.hit_ratio",
              ratio(static_cast<double>(vfd_hits), static_cast<double>(vfd_hits + vfd_miss)));
  sim_out.num("hdfs.cycles.client_app", cpb({CycleCategory::kClientApp}));
  sim_out.num("hdfs.cycles.datanode_app", cpb({CycleCategory::kDatanodeApp}));
  sim_out.num("hdfs.cycles.namenode", cpb({CycleCategory::kNamenode}));
  sim_out.num("hdfs.hedge.launched", static_cast<double>(h_launched));
  sim_out.num("hdfs.hedge.win_ratio",
              ratio(static_cast<double>(h_wins), static_cast<double>(h_launched)));
  sim_out.num("hdfs.hedge.wasted_ratio",
              ratio(static_cast<double>(h_wasted), static_cast<double>(r.read_bytes)));
  const cluster::ReplicaSelector* sel = c.route_selector();
  sim_out.num("cluster.route.cross_rack_mb", mb(c.net().lan().cross_rack_bytes()));
  sim_out.num("cluster.route.overload_avoided",
              sel ? static_cast<double>(sel->overload_avoided()) : 0.0);
  sim_out.num("cluster.route.feedback_reports",
              sel ? static_cast<double>(sel->feedback_reports()) : 0.0);
}

// ---------------------------------------------------------------------------
// Workload 1: dfsio_hybrid_4vm. The paper's Fig. 10 hybrid bed at 2.0 GHz,
// both hosts filled to 4 VMs with 85% lookbusy, vRead over RDMA. One
// client reads a file split over the co-located and the remote datanode
// sequentially with 1 MB requests (closed loop): a cold pass, then a warm
// re-read pass.

constexpr std::uint64_t kDfsioBytes = 512 * kMiB;
constexpr std::uint64_t kDfsioRequest = kMiB;

// One closed-loop sequential TestDFSIO pass with the map task's
// per-byte processing charged between requests.
sim::Task dfsio_pass(Cluster* c, std::uint64_t file_seed, Run* run) {
  hdfs::DfsClient* client = c->client("client");
  std::unique_ptr<hdfs::DfsInputStream> in;
  co_await client->open("/data", in);
  const std::uint64_t size = in->size();
  for (std::uint64_t off = 0; off < size; off += kDfsioRequest) {
    hdfs::ReadRequest req;
    req.len = std::min(kDfsioRequest, size - off);
    bool ok = false;
    co_await timed_read(c, in.get(), req, off, file_seed, c->sim().now(), run, &ok);
    if (!ok) in->seek(off + req.len);
    co_await client->vm().run_vcpu(
        c->costs().per_byte(req.len, c->costs().dfsio_app_cycles_per_byte),
        metrics::CycleCategory::kClientApp);
  }
  co_await in->close();
}

sim::Task dfsio_job(Cluster* c, std::uint64_t seed, std::uint64_t file_seed, Run* run) {
  // Seeded arrival phase against the lookbusy duty cycle (10 ms period).
  co_await c->sim().delay(static_cast<SimTime>(mix64(seed, 1) % sim::ms(10)));
  run->phase_start = c->sim().now();
  run->acct_start = c->acct().snapshot();
  co_await dfsio_pass(c, file_seed, run);  // cold
  co_await dfsio_pass(c, file_seed, run);  // warm
  run->phase_end = c->sim().now();
  run->acct_end = c->acct().snapshot();
  run->stamp(run->phase_end);
}

Setup setup_dfsio(std::uint64_t seed, std::uint64_t file_seed) {
  Setup s;
  Clock::time_point t0 = Clock::now();
  ClusterConfig cfg;
  cfg.freq_ghz = 2.0;
  cfg.block_size = 16 * kMiB;
  s.cluster = std::make_unique<Cluster>(cfg);
  Cluster& c = *s.cluster;
  c.sim().enable_dispatch_digest();
  c.add_host("host1");
  c.add_host("host2");
  c.add_vm("host1", "client");
  c.create_namenode("client");
  c.add_datanode("host1", "datanode1");
  c.add_datanode("host2", "datanode2");
  c.add_client("client");
  c.add_lookbusy("host1", "bg1a", 0.85);
  c.add_lookbusy("host1", "bg1b", 0.85);
  c.add_lookbusy("host2", "bg2a", 0.85);
  c.add_lookbusy("host2", "bg2b", 0.85);
  c.add_lookbusy("host2", "bg2c", 0.85);
  s.topology_s = seconds_since(t0);

  t0 = Clock::now();
  // The seed picks which datanode holds the first block, and trims up to
  // 15 x 64 KB off the file so the last request of a pass is partial.
  const std::uint64_t bytes = kDfsioBytes - (mix64(seed, 9) % 16) * 64 * 1024;
  if (mix64(seed, 2) & 1) {
    c.preload_file("/data", bytes, file_seed, {{"datanode1"}, {"datanode2"}});
  } else {
    c.preload_file("/data", bytes, file_seed, {{"datanode2"}, {"datanode1"}});
  }
  s.preload_s = seconds_since(t0);

  t0 = Clock::now();
  core::DaemonConfig dc;
  dc.transport = core::Transport::kRdma;
  // Large enough for the whole file, so the warm pass is served from the
  // daemon's block cache (the re-read case of Fig. 11).
  dc.cache_bytes = kDfsioBytes + 64 * kMiB;
  c.enable_vread(dc);
  c.drop_all_caches();
  s.enable_vread_s = seconds_since(t0);
  s.hosts = {"host1", "host2"};
  s.clients = {"client"};
  s.job = [&c, seed, file_seed](Run* run) { return dfsio_job(&c, seed, file_seed, run); };
  return s;
}

// ---------------------------------------------------------------------------
// Workload 2: rack_pread_open. Open loop of seeded Poisson arrivals of
// 64 KB positional reads from six client VMs (one tenant each) on a
// two-rack, eight-host bed with 4:1 ToR oversubscription and 2.5 Gbps
// links. 2-way replicated files with 4 MB blocks; daemon caches smaller
// than the working set; peer cache, replica-aware routing, hedged reads
// and the SSD variability model all on. The offered rate is fixed below
// saturation, so latency does not depend on run length; the read rate
// is therefore pinned by the offered load, and latency is what moves.
//
// Offsets are uniform over the 256 MB working set, as in
// bench/ablation_tail.cc: no published skew is modeled. Replicas follow
// HDFS's default placement for two copies (one per rack, a random node
// within it), so the load per datanode is as uneven as the draw makes it
// and the replica selector has imbalance to route around. The draw is part
// of the bed, like its topology, and does not follow the seed: with only
// 64 blocks a per-seed draw made p99 spread 9% between seeds, 2-3% without.

constexpr std::uint64_t kRackFiles = 4;
constexpr std::uint64_t kRackBlockBytes = 4 * kMiB;
constexpr std::uint64_t kRackFileBytes = 64 * kMiB;
constexpr std::uint64_t kRackRead = 64 * 1024;
constexpr double kRackRatePerClient = 500.0;  // reads/s
constexpr std::uint64_t kRackPlacementSeed = 1;
constexpr std::size_t kRackReadsPerClient = 4000;
constexpr std::size_t kRackWorkersPerClient = 8;
struct Placed {
  const char* vm;
  const char* host;
};
constexpr Placed kRackClients[] = {{"c1", "h1"}, {"c2", "h3"}, {"c3", "h3"},
                                   {"c4", "h5"}, {"c5", "h7"}, {"c6", "h8"}};

struct OpenLoop {
  std::string vm;
  std::vector<SimTime> due;
  std::vector<std::uint64_t> file;
  std::vector<std::uint64_t> offset;
  std::size_t next = 0;
};

std::uint64_t rack_file_seed(std::uint64_t file_seed, std::uint64_t f) {
  return mix64(file_seed, 100 + f);
}

using Streams = std::vector<std::unique_ptr<hdfs::DfsInputStream>>;

sim::Task rack_open(Cluster* c, std::string vm, Streams* in, sim::Latch* opened) {
  in->resize(kRackFiles);
  for (std::uint64_t f = 0; f < kRackFiles; ++f) {
    co_await c->client(vm)->open("/f" + std::to_string(f), (*in)[f]);
  }
  opened->count_down();
}

// A client-side worker: takes the next due read in order, waits for its
// due time, issues it and charges the latency from the due time — so a
// backlog in the client or the system shows up in the numbers.
sim::Task rack_worker(Cluster* c, OpenLoop* ol, Streams* in, std::uint64_t file_seed,
                      Run* run, sim::Latch* done) {
  while (ol->next < ol->due.size()) {
    const std::size_t i = ol->next++;
    if (c->sim().now() < ol->due[i]) co_await c->sim().delay(ol->due[i] - c->sim().now());
    hdfs::ReadRequest req;
    req.offset = ol->offset[i];
    req.len = kRackRead;
    req.readahead = false;  // random access: readahead only wastes the device
    bool ok = false;
    co_await timed_read(c, (*in)[ol->file[i]].get(), req, ol->offset[i],
                        rack_file_seed(file_seed, ol->file[i]), ol->due[i], run, &ok);
  }
  done->count_down();
}

sim::Task rack_job(Cluster* c, std::vector<OpenLoop>* loops, std::uint64_t file_seed,
                   Run* run) {
  // Every worker opens its streams before the timed phase; arrivals are
  // relative to the phase start.
  const std::size_t workers = loops->size() * kRackWorkersPerClient;
  std::vector<Streams> streams(workers);
  sim::Latch opened(c->sim(), workers);
  for (std::size_t w = 0; w < workers; ++w) {
    c->sim().spawn(rack_open(c, (*loops)[w / kRackWorkersPerClient].vm, &streams[w], &opened));
  }
  co_await opened.wait();
  run->phase_start = c->sim().now();
  run->acct_start = c->acct().snapshot();
  sim::Latch done(c->sim(), workers);
  for (std::size_t w = 0; w < workers; ++w) {
    OpenLoop& ol = (*loops)[w / kRackWorkersPerClient];
    if (w % kRackWorkersPerClient == 0) {
      for (SimTime& t : ol.due) t += run->phase_start;
    }
    c->sim().spawn(rack_worker(c, &ol, &streams[w], file_seed, run, &done));
  }
  co_await done.wait();
  run->phase_end = run->last_stamp;
  run->acct_end = c->acct().snapshot();
  for (Streams& in : streams) {
    for (auto& s : in) co_await s->close();
  }
}

// Poisson arrivals conditioned on exactly kRackReadsPerClient in the
// window: uniform order statistics over [0, N / rate). Fixing the count
// and the window keeps the offered load identical across seeds.
std::vector<OpenLoop> rack_arrivals(std::uint64_t seed) {
  std::vector<OpenLoop> loops;
  const std::uint64_t slots = kRackFileBytes / kRackRead;
  const double window_s = static_cast<double>(kRackReadsPerClient) / kRackRatePerClient;
  for (std::size_t k = 0; k < std::size(kRackClients); ++k) {
    OpenLoop ol;
    ol.vm = kRackClients[k].vm;
    const std::uint64_t stream = mix64(seed, 1000 + k);
    for (std::size_t i = 0; i < kRackReadsPerClient; ++i) {
      ol.due.push_back(static_cast<SimTime>(unit(mix64(stream, 4 * i)) * window_s * 1e9));
    }
    std::sort(ol.due.begin(), ol.due.end());
    for (std::size_t i = 0; i < kRackReadsPerClient; ++i) {
      ol.file.push_back(mix64(stream, 4 * i + 1) % kRackFiles);
      ol.offset.push_back(mix64(stream, 4 * i + 2) % slots * kRackRead);
    }
    loops.push_back(std::move(ol));
  }
  return loops;
}

Setup setup_rack(std::uint64_t seed, std::uint64_t file_seed) {
  Setup s;
  Clock::time_point t0 = Clock::now();
  ClusterConfig cfg;
  cfg.block_size = kRackBlockBytes;
  cfg.cores_per_host = 8;
  cfg.link.bw_gbps = 2.5;
  cfg.racks.hosts_per_rack = 4;
  cfg.racks.oversubscription = 4.0;
  // Small host page caches: repeat reads reach the device, where the
  // variability model lives.
  cfg.page_cache_bytes = 8 * kMiB;
  s.cluster = std::make_unique<Cluster>(cfg);
  Cluster& c = *s.cluster;
  c.sim().enable_dispatch_digest();
  s.hosts = {"h1", "h2", "h3", "h4", "h5", "h6", "h7", "h8"};
  for (const std::string& h : s.hosts) c.add_host(h);
  c.add_vm("h4", "nn");
  c.create_namenode("nn");
  c.add_datanode("h1", "dn1");
  c.add_datanode("h2", "dn2");
  c.add_datanode("h5", "dn3");
  c.add_datanode("h6", "dn4");
  for (const Placed& p : kRackClients) {
    c.add_vm(p.host, p.vm);
    c.add_client(p.vm);
    s.clients.push_back(p.vm);
  }
  s.topology_s = seconds_since(t0);

  t0 = Clock::now();
  // One replica per rack on a random node of it; the draw also picks which
  // rack holds the first replica.
  for (std::uint64_t f = 0; f < kRackFiles; ++f) {
    std::vector<std::vector<std::string>> placements;
    for (std::uint64_t b = 0; b < kRackFileBytes / kRackBlockBytes; ++b) {
      const std::uint64_t r = mix64(kRackPlacementSeed, 10'000 + f * 1'000 + b);
      std::string rack1 = (r & 1) ? "dn1" : "dn2";
      std::string rack2 = (r & 2) ? "dn3" : "dn4";
      if (r & 4) std::swap(rack1, rack2);
      placements.push_back({rack1, rack2});
    }
    c.preload_file("/f" + std::to_string(f), kRackFileBytes, rack_file_seed(file_seed, f),
                   placements);
  }
  s.preload_s = seconds_since(t0);

  t0 = Clock::now();
  core::DaemonConfig dc;
  dc.workers = 4;
  dc.cache_bytes = 8 * kMiB;  // far below the 256 MB working set
  dc.peer_cache.enabled = true;
  dc.disk.enabled = true;
  dc.disk.seed = mix64(seed, 3);
  dc.disk.channels = 4;
  c.enable_vread(dc);
  c.enable_routing(cluster::RouteConfig{.policy = cluster::RoutePolicy::kReplicaAware,
                                        .seed = mix64(seed, 4)});
  hdfs::HedgeConfig hc;
  hc.enabled = true;
  hc.max_delay = sim::ms(6);
  for (const std::string& vm : s.clients) c.client(vm)->set_hedge(hc);
  c.drop_all_caches();
  s.enable_vread_s = seconds_since(t0);
  auto loops = std::make_shared<std::vector<OpenLoop>>(rack_arrivals(seed));
  s.job = [&c, loops, file_seed](Run* run) { return rack_job(&c, loops.get(), file_seed, run); };
  return s;
}

// ---------------------------------------------------------------------------
// Workload 3: ingest_readback. A closed-loop TestDFSIO write of a new file
// through a 2-replica pipeline, while a second client scans an existing
// file over vRead; the SSD variability model is on, so the pipeline's
// writes stall the scan's device reads. After the write, the reader reads
// the new file back through vRead (a vRead_update mount refresh) while its
// scan goes on.

constexpr std::uint64_t kIngestBaseBytes = 128 * kMiB;
constexpr std::uint64_t kIngestWriteBytes = 256 * kMiB;
constexpr std::uint64_t kIngestWriteChunk = kMiB;
constexpr std::uint64_t kIngestRead = 256 * 1024;
constexpr SimTime kIngestThink = sim::us(200);

sim::Task ingest_writer(Cluster* c, std::uint64_t write_seed, Run* run) {
  run->write_start = c->sim().now();
  std::vector<std::string> pipeline{std::string("dn1"), std::string("dn2")};
  std::unique_ptr<hdfs::DfsOutputStream> out;
  co_await c->client("writer")->create("/ingest", Cluster::place_on(pipeline),
                                       c->config().block_size, out);
  for (std::uint64_t off = 0; off < kIngestWriteBytes; off += kIngestWriteChunk) {
    mem::Buffer chunk = payload(run, write_seed, off, kIngestWriteChunk);
    try {
      co_await out->write(chunk);
      run->write_bytes += kIngestWriteChunk;
    } catch (const std::exception&) {
      ++run->writes_failed;
    }
    ++run->writes;
  }
  co_await out->close();
  run->write_end = c->sim().now();
  run->stamp(run->write_end);
}

// Scans `path` sequentially (wrapping at EOF) while `*keep_going`, with a
// seeded think time of up to kIngestThink between requests.
sim::Task ingest_scan(Cluster* c, std::string path, std::uint64_t seed,
                      std::uint64_t file_seed, Run* run, const bool* keep_going,
                      sim::Latch* done) {
  // Seeded start offset of the scan against the write stream.
  co_await c->sim().delay(static_cast<SimTime>(mix64(seed, 5) % sim::ms(2)));
  std::unique_ptr<hdfs::DfsInputStream> in;
  co_await c->client("reader")->open(path, in);
  std::uint64_t off = 0;
  for (std::uint64_t i = 0; *keep_going; ++i) {
    co_await c->sim().delay(static_cast<SimTime>(mix64(seed, 100 + i) % kIngestThink));
    if (off >= in->size()) {
      off = 0;
      in->seek(0);
    }
    hdfs::ReadRequest req;
    req.len = std::min(kIngestRead, in->size() - off);
    bool ok = false;
    co_await timed_read(c, in.get(), req, off, file_seed, c->sim().now(), run, &ok);
    off += req.len;
    if (!ok) in->seek(off);
  }
  co_await in->close();
  done->count_down();
}

sim::Task ingest_readback(Cluster* c, std::uint64_t write_seed, Run* run) {
  std::unique_ptr<hdfs::DfsInputStream> in;
  co_await c->client("reader")->open("/ingest", in);
  for (std::uint64_t off = 0; off < in->size(); off += kIngestRead) {
    hdfs::ReadRequest req;
    req.len = std::min(kIngestRead, in->size() - off);
    bool ok = false;
    co_await timed_read(c, in.get(), req, off, write_seed, c->sim().now(), run, &ok);
    if (!ok) in->seek(off + req.len);
  }
  if (in->size() != kIngestWriteBytes) ++run->reads_failed;
  co_await in->close();
}

sim::Task ingest_job(Cluster* c, std::uint64_t seed, std::uint64_t file_seed,
                     std::uint64_t write_seed, Run* run) {
  run->phase_start = c->sim().now();
  run->acct_start = c->acct().snapshot();
  bool scanning = true;
  sim::Latch scan_done(c->sim(), 1);
  c->sim().spawn(ingest_scan(c, "/base", seed, file_seed, run, &scanning, &scan_done));
  co_await ingest_writer(c, write_seed, run);
  co_await ingest_readback(c, write_seed, run);
  scanning = false;
  co_await scan_done.wait();
  run->phase_end = run->last_stamp;
  run->acct_end = c->acct().snapshot();
}

Setup setup_ingest(std::uint64_t seed, std::uint64_t file_seed) {
  Setup s;
  Clock::time_point t0 = Clock::now();
  ClusterConfig cfg;
  cfg.block_size = 16 * kMiB;
  // Small host page caches: the scan's reads and the pipeline's writes
  // meet at the device.
  cfg.page_cache_bytes = 32 * kMiB;
  s.cluster = std::make_unique<Cluster>(cfg);
  Cluster& c = *s.cluster;
  c.sim().enable_dispatch_digest();
  c.add_host("host1");
  c.add_host("host2");
  c.add_vm("host1", "writer");
  c.create_namenode("writer");
  c.add_datanode("host1", "dn1");
  c.add_datanode("host2", "dn2");
  c.add_client("writer");
  c.add_vm("host2", "reader");
  c.add_client("reader");
  s.topology_s = seconds_since(t0);

  t0 = Clock::now();
  c.preload_file("/base", kIngestBaseBytes, file_seed, {{"dn2", "dn1"}});
  s.preload_s = seconds_since(t0);

  t0 = Clock::now();
  core::DaemonConfig dc;
  dc.disk.enabled = true;
  dc.disk.seed = mix64(seed, 6);
  c.enable_vread(dc);
  c.drop_all_caches();
  s.enable_vread_s = seconds_since(t0);
  s.hosts = {"host1", "host2"};
  s.clients = {"writer", "reader"};
  s.job = [&c, seed, file_seed](Run* run) {
    return ingest_job(&c, seed, file_seed, mix64(seed, 8), run);
  };
  return s;
}

// ---------------------------------------------------------------------------

int run_iteration(const std::string& workload, std::uint64_t seed, bool traced) {
  const std::uint64_t file_seed = mix64(seed, 7);
  using SetupFn = Setup (*)(std::uint64_t seed, std::uint64_t file_seed);
  const std::pair<const char*, SetupFn> workloads[] = {
      {"dfsio_hybrid_4vm", setup_dfsio},
      {"rack_pread_open", setup_rack},
      {"ingest_readback", setup_ingest},
  };
  SetupFn setup = nullptr;
  for (const auto& [name, fn] : workloads) {
    if (workload == name) setup = fn;
  }
  if (setup == nullptr) {
    std::cerr << "vbench: unknown workload '" << workload << "'\n";
    return 2;
  }
  Setup s = setup(seed, file_seed);
  Cluster& c = *s.cluster;
  trace::Tracer& tr = trace::tracer();
  if (traced) {
    tr.clear();
    tr.enable(c.sim());
  }

  Run run;
  const Clock::time_point t0 = Clock::now();
  c.run_job(s.job(&run));
  const double job_s = seconds_since(t0);
  const double wall_s = job_s - run.verify_s - run.gen_s;
  if (run.last_stamp > c.sim().now() || run.phase_end > run.last_stamp) {
    std::cerr << "vbench: a stamp lies beyond the simulation clock\n";
    return 3;
  }

  std::vector<SimTime> sorted = run.lat;
  std::sort(sorted.begin(), sorted.end());
  const SimTime span = run.phase_end - run.phase_start;
  const std::uint64_t events = c.sim().events_dispatched();
  const double bytes = static_cast<double>(run.read_bytes + run.write_bytes);
  const std::size_t half = sorted.size() / 2;
  std::vector<SimTime> first(run.lat.begin(), run.lat.begin() + half);
  std::vector<SimTime> second(run.lat.begin() + half, run.lat.end());
  std::sort(first.begin(), first.end());
  std::sort(second.begin(), second.end());

  Json sim_out;
  sim_out.num("sim_read_mbps", ratio(mb(run.read_bytes), sim::to_seconds(span)));
  sim_out.num("sim_read_p50_ms", ms(pct(sorted, 50)));
  sim_out.num("sim_read_p99_ms", ms(pct(sorted, 99)));
  sim_out.num("sim_write_mbps",
              ratio(mb(run.write_bytes), sim::to_seconds(run.write_end - run.write_start)));
  sim_out.num("sim_cycles_per_byte", ratio(window_work_cycles(run), bytes));
  sim_out.num("read_error_ratio", ratio(static_cast<double>(run.reads_failed),
                                        static_cast<double>(run.lat.size())));
  sim_out.num("read_samples", static_cast<double>(sorted.size()));
  sim_out.num("sim_span_ms", ms(span));
  // Reads in completion order, split in two: run.py checks on the open
  // loop that latency does not grow with run length.
  sim_out.num("sim_read_p99_first_half_ms", ms(pct(first, 99)));
  sim_out.num("sim_read_p99_second_half_ms", ms(pct(second, 99)));
  sim_out.num("sim.events", static_cast<double>(events));
  layer_metrics(c, s, run, sim_out);

  Json traced_out;
  if (traced) {
    const trace::RunSummary sum = trace::aggregate(tr);
    traced_out.num("virt.copies_per_byte", sum.total.copies());
    traced_out.num("hw.cpu.sync_wait_ms", ms(sum.total.sync_wait));
    traced_out.num("hw.disk.service_ms", ms(sum.total.disk));
    traced_out.num("core.transport_ms", ms(sum.total.transport));
    traced_out.num("trace.spans", static_cast<double>(tr.spans_recorded()));
    tr.disable();
    tr.clear();
  }

  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Json host_out;
  host_out.num("setup_s", s.topology_s + s.preload_s + s.enable_vread_s);
  host_out.num("apps.setup.topology_s", s.topology_s);
  host_out.num("apps.setup.preload_s", s.preload_s);
  host_out.num("apps.setup.enable_vread_s", s.enable_vread_s);
  host_out.num("wall_s", wall_s);
  host_out.num("sim.run_s", job_s);
  host_out.num("sim.host_ns_per_event", ratio(wall_s * 1e9, static_cast<double>(events)));
  host_out.num("mem.verify_s", run.verify_s);
  host_out.num("mem.verify_mb_per_s", ratio(mb(run.verify_bytes), run.verify_s));
  host_out.num("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0);

  char digest[32];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(c.sim().dispatch_digest()));
  const std::uint64_t failed = run.reads_failed + run.writes_failed;
  Json out;
  out.str("workload", workload);
  out.num("seed", static_cast<double>(seed));
  out.raw("traced", traced ? "true" : "false");
  out.str("digest", digest);
  out.num("attempted", static_cast<double>(run.lat.size() + run.writes));
  out.num("failed", static_cast<double>(failed));
  out.raw("sim", sim_out.done());
  out.raw("host", host_out.done());
  out.raw("traced_metrics", traced_out.done());
  std::cout << out.done() << std::endl;
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace vread::perfbench

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 1;
  bool traced = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string val = argv[i + 1];
    if (flag == "--workload") {
      workload = val;
    } else if (flag == "--seed") {
      seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (flag == "--trace") {
      traced = val == "1";
    } else {
      std::cerr << "vbench: unknown flag " << flag << "\n";
      return 2;
    }
  }
  if (workload.empty()) {
    std::cerr << "usage: vbench --workload <name> --seed <n> [--trace 0|1]\n";
    return 2;
  }
  try {
    return vread::perfbench::run_iteration(workload, seed, traced);
  } catch (const std::exception& e) {
    std::cerr << "vbench: " << e.what() << "\n";
    return 4;
  }
}
