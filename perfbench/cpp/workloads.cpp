#include "workloads.hpp"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "core/api/admission.hpp"
#include "core/api/session.hpp"
#include "core/listing/collector.hpp"
#include "enumkernel/kernel.hpp"
#include "enumkernel/orient.hpp"
#include "expander/decomposition.hpp"
#include "graph/generators.hpp"
#include "local/parallel.hpp"
#include "runtime/thread_pool.hpp"
#include "spans.hpp"
#include "support/prng.hpp"

namespace perfbench {
namespace {

using dcl::clique_set;
using dcl::edge_list;
using dcl::graph;
using dcl::listing_query;
using dcl::vertex;

/// Blocks per run, each opened by a cold set-up cycle; setup_s and
/// queries_per_s are medians over blocks.
constexpr int kBlocks = 8;
/// Untimed queries between a block's cold cycle and its window.
constexpr int kWarmQueries = 2;
/// Repetitions of each per-layer probe in a traced run; the metric is the
/// median.
constexpr int kProbeReps = 5;
/// Arcs per dynamically scheduled chunk in the kernel-twin probes (the
/// session default).
constexpr std::int64_t kGrain = 128;

// End-to-end metrics of an untraced run and per-layer metrics of a traced
// run, with units, in output order. perfbench/run.py checks both lists
// against BENCHMARK.json.
const std::vector<std::pair<const char*, const char*>> kEndToEnd = {
    {"setup_s", "s"},       {"query_p50_s", "s"}, {"query_p90_s", "s"},
    {"queries_per_s", "1/s"}, {"peak_rss_mb", "MB"},
};

const std::vector<std::pair<const char*, const char*>> kPerLayer = {
    {"graph.build_s", "s"},
    {"api.bind_s", "s"},
    {"enumkernel.orient_s", "s"},
    {"local.count_s", "s"},
    {"enumkernel.edges_count_s", "s"},
    {"local.list_s", "s"},
    {"collector.fold_s", "s"},
    {"api.run_s", "s"},
    {"expander.decompose_s", "s"},
    {"listing.decompose_s", "s"},
    {"listing.anatomy_s", "s"},
    {"listing.clusters_s", "s"},
    {"listing.exhaustive_s", "s"},
    {"listing.fallback_s", "s"},
    {"listing.driver_total_s", "s"},
    {"api.finalize_s", "s"},
    {"sim_rounds", "rounds"},
    {"sim_messages", "messages"},
    {"congest.learn_messages", "messages"},
    {"congest.tree_messages", "messages"},
    {"congest.deliver_messages", "messages"},
    {"congest.exhaustive_messages", "messages"},
    {"listing.levels", "count"},
    {"listing.clusters_listed", "count"},
    {"listing.emitted", "count"},
    {"listing.duplicates", "count"},
    {"listing.distinct_per_emitted", "ratio"},
    {"admission.batches", "count"},
    {"admission.coalesced", "count"},
    {"admission.kernel_sweeps", "count"},
    {"admission.sweeps_per_query", "ratio"},
    {"admission.wait_s", "s"},
    {"api.edges_collect_s", "s"},
    {"api.edges_count_s", "s"},
    {"api.full_count_s", "s"},
    {"runtime.lease_misses", "count"},
    {"trace.overhead_frac", "ratio"},
};

// ------------------------------------------------------------ statistics

/// Nearest-rank percentile (the ceil(q*n)-th smallest sample): a reported
/// percentile is always an observed value. q in (0, 1].
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  std::size_t rank = std::size_t(std::ceil(q * double(v.size())));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return v[rank - 1];
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

/// Resets the process's resident-set high-water mark (Linux >= 4.0).
/// Returns false where the kernel does not allow it.
bool reset_peak_rss() {
  // Hand freed heap pages back first, so the mark starts from the live
  // set rather than from whatever the allocator kept after the cold cycle.
  malloc_trim(0);
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
  f.flush();
  return bool(f);
}

/// Resident-set high-water mark in MiB: since the last reset_peak_rss(),
/// or over the whole process when no reset took effect.
double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  for (std::string line; std::getline(f, line);)
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

// ------------------------------------------------------------- workloads

struct query_outcome {
  bool ok = true;
  double latency = 0.0;  ///< seconds inside the API call
  int kind = 0;          ///< workload-defined query kind
  std::string error;
};

struct sample {
  double latency = 0.0;
  int client = 0;
  int kind = 0;
};

struct loop_result {
  std::vector<sample> samples;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  double elapsed = 0.0;  ///< window start to the last completion
  std::vector<std::string> errors;

  std::vector<double> latencies() const {
    std::vector<double> v;
    for (const auto& s : samples) v.push_back(s.latency);
    return v;
  }
};

/// Edge list of a generated graph, shuffled by the seed: the graph build
/// under test canonicalizes whatever order it is handed.
edge_list shuffled_edges(const graph& g, std::uint64_t seed) {
  edge_list e = g.edges();
  dcl::prng rng(dcl::hash_pair(seed, 0x5eed));
  rng.shuffle(e);
  return e;
}

/// The sessions bound to one graph: a listing_session and, for serving
/// workloads, the serving_session wrapping it. Aliases the graph, which
/// must outlive it.
struct binding {
  binding(const graph& g, const dcl::session_options& opt, bool serve)
      : session(g, opt) {
    if (serve) server.emplace(session);
  }
  dcl::listing_session session;
  std::optional<dcl::serving_session> server;
};

class workload {
 public:
  struct shape {
    int threads = 1;  ///< session worker pool
    int clients = 1;  ///< closed-loop client threads
    int p = 3;        ///< arity of the count twins and the fold probe
  };

  virtual ~workload() = default;
  virtual shape shape_of() const = 0;

  /// Generates the input edge list (and any per-client input) from `seed`.
  virtual void make_input(std::uint64_t seed) = 0;
  /// Solo reference answers, computed before anything is timed.
  virtual void compute_oracle(const graph& g) = 0;
  /// Binds the session(s) under test to `g`. Workloads with more than one
  /// client are served through a serving_session.
  std::unique_ptr<binding> bind(const graph& g) const {
    return std::make_unique<binding>(g, options(), shape_of().clients > 1);
  }
  virtual dcl::session_options options() const = 0;
  /// The first answered query of a cold cycle.
  virtual dcl::query_result first_query(binding& b) = 0;
  /// Whether `r`, an answer of first_query(), matches the oracle.
  virtual bool first_ok(const dcl::query_result& r) const = 0;
  /// One checked query of client `client` (its seq-th).
  virtual query_outcome query(binding& b, int client, std::int64_t seq,
                              span_log& log, std::int64_t parent,
                              std::int64_t qid) = 0;
  /// Bracket one closed-loop block; `traced` marks a traced block.
  virtual void loop_begin(binding&) {}
  virtual void loop_end(binding&, bool /*traced*/) {}

  // Inputs of the traced run's kernel-twin and fold probes.
  virtual std::int64_t full_count() const = 0;  ///< K_p of the whole graph
  virtual const edge_list& twin_edges(const graph& g) const {
    return g.edges();
  }
  virtual std::int64_t twin_count() const { return full_count(); }
  /// Unfinalized tuples of one query as its engine emits them (stride
  /// fold_p(), duplicates preserved), and their distinct count.
  virtual std::vector<vertex> fold_input(const graph& g, binding& b) = 0;
  virtual int fold_p() const { return shape_of().p; }
  virtual std::int64_t fold_distinct() const { return full_count(); }

  /// Workload-specific per-layer metrics of a traced run; `traced` holds
  /// the samples of the traced blocks. Returns false if a probe's answer
  /// was wrong.
  virtual bool layer_metrics(const graph&, binding&, span_log&,
                             const std::vector<sample>& /*traced*/,
                             std::map<std::string, double>&) {
    return true;
  }
  /// Facts for the run's info block.
  virtual void describe(std::vector<metric>&) const {}

  vertex n = 0;
  edge_list edges;
};

// --------------------------------------------------- congest-ring / -k4

/// Ledger phase family of a label: per-cluster edge learning, partition
/// tree construction and spreading, E' delivery and two-hop exchanges, and
/// the per-level exhaustive sweep. Anything else (the base-case gather)
/// belongs to no family.
const char* ledger_family(const std::string& label) {
  if (label.rfind("exhaustive", 0) == 0) return "congest.exhaustive_messages";
  if (label.find("learn") != std::string::npos) return "congest.learn_messages";
  if (label.find("/tree") != std::string::npos ||
      label.find("leafassign") != std::string::npos)
    return "congest.tree_messages";
  if (label.ends_with("/deliver") || label.ends_with("/twohop"))
    return "congest.deliver_messages";
  return nullptr;
}

class congest_workload : public workload {
 public:
  explicit congest_workload(int p) : p_(p) {}

  shape shape_of() const override { return {2, 1, p_}; }

  void compute_oracle(const graph& g) override {
    dcl::listing_session local(g, {.engine = dcl::listing_engine::local_kclist,
                                   .threads = 1});
    oracle_ = local.run(query_of()).cliques;
    // The ledger reference: a solo one-worker simulation.
    dcl::listing_session solo(g, {.engine = dcl::listing_engine::congest_sim,
                                  .threads = 1});
    auto r = solo.run(query_of());
    if (!(r.cliques == oracle_))
      throw std::runtime_error("solo congest run disagrees with local_kclist");
    report_ = std::move(r.report);
  }

  dcl::session_options options() const override {
    return {.engine = dcl::listing_engine::congest_sim,
            .threads = shape_of().threads};
  }

  dcl::query_result first_query(binding& b) override {
    return b.session.run(query_of());
  }
  bool first_ok(const dcl::query_result& r) const override {
    return r.cliques == oracle_ && r.report.ledger == report_.ledger;
  }

  query_outcome query(binding& b, int, std::int64_t, span_log& log,
                      std::int64_t parent, std::int64_t qid) override {
    query_outcome o;
    dcl::query_result r{clique_set(3), 0, {}};
    {
      scoped_span s(log, "api.run", parent, qid);
      const double t0 = now_s();
      r = b.session.run(query_of());
      o.latency = now_s() - t0;
    }
    if (log.enabled()) {
      std::lock_guard<std::mutex> lock(m_);
      phases_.push_back(r.report.phase_seconds);
      run_s_.push_back(o.latency);
    }
    scoped_span s(log, "bench.check", parent, qid);
    o.ok = r.cliques == oracle_ && r.report.ledger == report_.ledger;
    return o;
  }

  std::int64_t full_count() const override { return oracle_.size(); }
  std::vector<vertex> fold_input(const graph&, binding& b) override {
    return b.session.run_shard(query_of(), dcl::congest_shard_plan{})
        .raw_tuples;
  }

  bool layer_metrics(const graph& g, binding&, span_log& log,
                     const std::vector<sample>&,
                     std::map<std::string, double>& m) override {
    // The driver's first-level decomposition, with the driver's epsilon.
    dcl::decomposition_options dopt;
    dopt.epsilon = p_ == 4 ? 1.0 / 12.0 : 1.0 / 18.0;
    for (int i = 0; i < kProbeReps; ++i) {
      scoped_span s(log, "expander.decompose");
      if (dcl::decompose(g, dopt).clusters.empty()) return false;
    }
    m["expander.decompose_s"] = median(log.durations("expander.decompose"));

    const std::pair<const char*, const char*> phase_names[] = {
        {"decompose", "listing.decompose_s"},
        {"anatomy", "listing.anatomy_s"},
        {"clusters", "listing.clusters_s"},
        {"exhaustive", "listing.exhaustive_s"},
        {"fallback", "listing.fallback_s"},
        {"total", "listing.driver_total_s"}};
    for (const auto& [key, name] : phase_names) {
      std::vector<double> v;
      for (const auto& ph : phases_) {
        const auto it = ph.find(key);
        v.push_back(it == ph.end() ? 0.0 : it->second);
      }
      m[name] = median(v);
    }
    std::vector<double> finalize;
    for (std::size_t i = 0; i < phases_.size(); ++i) {
      const auto it = phases_[i].find("total");
      finalize.push_back(run_s_[i] - (it == phases_[i].end() ? 0 : it->second));
    }
    m["api.finalize_s"] = median(finalize);

    m["sim_rounds"] = double(report_.ledger.rounds());
    m["sim_messages"] = double(report_.ledger.messages());
    for (const auto& [label, cost] : report_.ledger.phases())
      if (const char* fam = ledger_family(label))
        m[fam] += double(cost.messages);
    m["listing.levels"] = double(report_.levels.size());
    double listed = 0;
    for (const auto& lv : report_.levels) listed += double(lv.clusters_listed);
    m["listing.clusters_listed"] = listed;
    m["listing.emitted"] = double(report_.emitted);
    m["listing.duplicates"] = double(report_.duplicates);
    m["listing.distinct_per_emitted"] =
        report_.emitted > 0 ? double(oracle_.size()) / double(report_.emitted)
                            : 0.0;
    return true;
  }

  void describe(std::vector<metric>& out) const override {
    out.push_back({"cliques", double(oracle_.size()), "count"});
    out.push_back({"sim_rounds", double(report_.ledger.rounds()), "rounds"});
    out.push_back(
        {"sim_messages", double(report_.ledger.messages()), "messages"});
  }

 private:
  listing_query query_of() const {
    listing_query q;
    q.p = p_;
    return q;
  }

  int p_;
  clique_set oracle_{3};
  dcl::listing_report report_;
  std::mutex m_;
  std::vector<std::map<std::string, double>> phases_;
  std::vector<double> run_s_;
};

class congest_ring final : public congest_workload {
 public:
  congest_ring() : congest_workload(3) {}
  void make_input(std::uint64_t seed) override {
    // ring_of_cliques has no randomness of its own: the seed only orders
    // the edge list, so the bound graph and its ledger are seed-independent.
    const graph g = dcl::gen::ring_of_cliques(16, 20);
    n = g.num_vertices();
    edges = shuffled_edges(g, seed);
  }
};

class congest_k4 final : public congest_workload {
 public:
  congest_k4() : congest_workload(4) {}
  void make_input(std::uint64_t seed) override {
    // One fixed instance (generator seed 23: 56,890 K4s from 122,607
    // emissions); the run seed only orders the edge list. Across generator
    // seeds the K4 count alone moves +-8%, which would bury the layer
    // changes this workload exists to show.
    const graph g = dcl::gen::planted_partition(5, 50, 0.6, 0.003, 23);
    n = g.num_vertices();
    edges = shuffled_edges(g, seed);
  }
};

// -------------------------------------------------------------- serve-mix

/// Three clients share one serving_session over a local_kclist session.
/// Each cycles through an edge-scoped p=3 collect on its own slice, an
/// edge-scoped p=4 count on that slice, and a full-graph p=4 count.
class serve_mix final : public workload {
 public:
  static constexpr int kClients = 3;
  enum kind { edges_collect = 0, edges_count = 1, full_count_q = 2 };

  shape shape_of() const override { return {1, kClients, 4}; }

  void make_input(std::uint64_t seed) override {
    // One fixed instance; the run seed orders the edge list and picks the
    // slices. Across generator seeds the full-graph K4 count moves by +-5%
    // (the early hubs decide it), which would show up as run-to-run noise.
    const graph g = dcl::gen::barabasi_albert(20000, 12, 1);
    n = g.num_vertices();
    edges = shuffled_edges(g, seed);
    // Client c's slice: the edges induced by its third of the vertices,
    // dealt out at random within each run of kClients vertices in degree
    // order, so every slice gets its share of the hubs.
    std::vector<vertex> by_degree(static_cast<std::size_t>(n));
    for (vertex v = 0; v < n; ++v) by_degree[std::size_t(v)] = v;
    std::stable_sort(by_degree.begin(), by_degree.end(),
                     [&](vertex a, vertex b) { return g.degree(a) > g.degree(b); });
    std::vector<int> owner(static_cast<std::size_t>(n));
    dcl::prng rng(dcl::hash_pair(seed, 0x511ce));
    std::vector<int> deal(kClients);
    for (vertex i = 0; i < n; i += kClients) {
      std::iota(deal.begin(), deal.end(), 0);
      rng.shuffle(deal);
      for (vertex j = i; j < std::min<vertex>(n, i + kClients); ++j)
        owner[std::size_t(by_degree[std::size_t(j)])] = deal[std::size_t(j - i)];
    }
    for (auto& s : slices_) s.clear();
    for (const auto& e : g.edges())
      if (owner[std::size_t(e.u)] == owner[std::size_t(e.v)])
        slices_[std::size_t(owner[std::size_t(e.u)])].push_back(e);
  }

  void compute_oracle(const graph& g) override {
    dcl::listing_session solo(g, {.engine = dcl::listing_engine::local_kclist,
                                  .threads = 1});
    for (int c = 0; c < kClients; ++c) {
      oracle_set_[c] = solo.cliques_in_edges(q_of(edges_collect),
                                             slices_[std::size_t(c)])
                           .cliques;
      oracle_count_[c] =
          solo.cliques_in_edges(q_of(edges_count), slices_[std::size_t(c)])
              .count;
    }
    oracle_full_ = solo.run(q_of(full_count_q)).count;
  }

  dcl::session_options options() const override {
    return {.engine = dcl::listing_engine::local_kclist,
            .threads = shape_of().threads};
  }

  dcl::query_result first_query(binding& b) override {
    return b.server->query(q_of(full_count_q));
  }
  bool first_ok(const dcl::query_result& r) const override {
    return r.count == oracle_full_;
  }

  query_outcome query(binding& b, int client, std::int64_t seq,
                      span_log& log, std::int64_t parent,
                      std::int64_t qid) override {
    query_outcome o;
    o.kind = int((seq + client) % 3);
    const edge_list& slice = slices_[std::size_t(client)];
    dcl::query_result r{clique_set(3), 0, {}};
    {
      scoped_span s(log, "api.run", parent, qid);
      const double t0 = now_s();
      r = o.kind == full_count_q ? b.server->query(q_of(full_count_q))
                                 : b.server->query_edges(q_of(o.kind), slice);
      o.latency = now_s() - t0;
    }
    scoped_span s(log, "bench.check", parent, qid);
    switch (o.kind) {
      case edges_collect:
        o.ok = r.cliques == oracle_set_[client];
        break;
      case edges_count:
        o.ok = r.count == oracle_count_[client];
        break;
      default:
        o.ok = r.count == oracle_full_;
    }
    return o;
  }

  void loop_begin(binding& b) override { before_ = b.server->stats(); }
  void loop_end(binding& b, bool traced) override {
    if (!traced) return;
    const dcl::serving_stats now = b.server->stats();
    traced_.queries += now.queries - before_.queries;
    traced_.batches += now.batches - before_.batches;
    traced_.coalesced += now.coalesced - before_.coalesced;
    traced_.kernel_sweeps += now.kernel_sweeps - before_.kernel_sweeps;
  }

  std::int64_t full_count() const override { return oracle_full_; }
  const edge_list& twin_edges(const graph&) const override {
    return slices_[0];
  }
  std::int64_t twin_count() const override { return oracle_count_[0]; }
  std::vector<vertex> fold_input(const graph&, binding&) override {
    std::vector<vertex> flat;
    dcl::enumkernel::enum_scratch ws;
    dcl::enumkernel::enumerate_cliques_in_edges(
        slices_[0], 3, ws, [&](std::span<const vertex> c) {
          flat.insert(flat.end(), c.begin(), c.end());
        });
    return flat;
  }
  int fold_p() const override { return 3; }
  std::int64_t fold_distinct() const override { return oracle_set_[0].size(); }

  bool layer_metrics(const graph&, binding& b, span_log& log,
                     const std::vector<sample>& traced,
                     std::map<std::string, double>& m) override {
    // Solo service time of each (client, kind) on the warm session,
    // bypassing admission.
    static constexpr const char* kSpan[3] = {
        "api.edges_collect", "api.edges_count", "api.full_count"};
    double solo[kClients][3] = {};
    bool ok = true;
    for (int c = 0; c < kClients; ++c)
      for (int k = 0; k < 3; ++k) {
        std::vector<double> t;
        for (int i = 0; i < kProbeReps; ++i) {
          scoped_span s(log, kSpan[k]);
          const double t0 = now_s();
          const edge_list& slice = slices_[std::size_t(c)];
          const auto r = k == full_count_q
                             ? b.session.run(q_of(k))
                             : b.session.cliques_in_edges(q_of(k), slice);
          t.push_back(now_s() - t0);
          ok = ok && (k == edges_collect ? r.cliques == oracle_set_[c]
                      : k == edges_count ? r.count == oracle_count_[c]
                                         : r.count == oracle_full_);
        }
        solo[c][k] = median(t);
      }
    for (int k = 0; k < 3; ++k)
      m[std::string(kSpan[k]) + "_s"] = median(log.durations(kSpan[k]));

    std::vector<double> wait;
    for (const auto& s : traced)
      wait.push_back(s.latency - solo[s.client][s.kind]);
    m["admission.wait_s"] = median(wait);
    m["admission.batches"] = double(traced_.batches);
    m["admission.coalesced"] = double(traced_.coalesced);
    m["admission.kernel_sweeps"] = double(traced_.kernel_sweeps);
    m["admission.sweeps_per_query"] =
        traced_.queries > 0
            ? double(traced_.kernel_sweeps) / double(traced_.queries)
            : 0.0;
    m["runtime.lease_misses"] = double(b.session.lease_stats().misses);
    return ok;
  }

  void describe(std::vector<metric>& out) const override {
    out.push_back({"full_k4", double(oracle_full_), "count"});
    for (int c = 0; c < kClients; ++c)
      out.push_back({"slice" + std::to_string(c) + "_edges",
                     double(slices_[std::size_t(c)].size()), "count"});
  }

 private:
  static listing_query q_of(int k) {
    listing_query q;
    q.p = k == edges_collect ? 3 : 4;
    q.mode = k == edges_collect ? dcl::sink_mode::collect
                                : dcl::sink_mode::count;
    return q;
  }

  edge_list slices_[kClients];
  clique_set oracle_set_[kClients] = {clique_set(3), clique_set(3),
                                      clique_set(3)};
  std::int64_t oracle_count_[kClients] = {};
  std::int64_t oracle_full_ = 0;
  dcl::serving_stats before_;
  dcl::serving_stats traced_;  ///< summed over the traced blocks
};

std::unique_ptr<workload> make_workload(const std::string& name) {
  if (name == "congest-ring") return std::make_unique<congest_ring>();
  if (name == "congest-k4") return std::make_unique<congest_k4>();
  if (name == "serve-mix") return std::make_unique<serve_mix>();
  throw std::invalid_argument("unknown workload: " + name);
}

// ---------------------------------------------------------------- harness

/// Closed loop: each client sends its next query when the previous one
/// returns, until `seconds` have passed.
loop_result closed_loop(workload& w, binding& b, int clients,
                        double seconds, span_log& log, bool traced) {
  std::atomic<std::int64_t> next_qid{0};
  std::vector<loop_result> per(static_cast<std::size_t>(clients));
  std::vector<double> last_end(static_cast<std::size_t>(clients), 0.0);
  w.loop_begin(b);
  const double start = now_s();
  const double deadline = start + seconds;
  const auto body = [&](int c) {
    loop_result& r = per[std::size_t(c)];
    const auto failure = [&](std::string what) {
      ++r.failed;
      if (r.errors.size() < 3) r.errors.push_back(std::move(what));
    };
    try {
      for (std::int64_t seq = 0; now_s() < deadline; ++seq) {
        const std::int64_t qid = next_qid++;
        const double t0 = now_s();
        query_outcome o;
        try {
          scoped_span q(log, "query", -1, qid);
          o = w.query(b, c, seq, log, q.id(), qid);
        } catch (const std::exception& e) {
          o.ok = false;
          o.latency = now_s() - t0;
          o.error = e.what();
        }
        ++r.attempted;
        r.samples.push_back({o.latency, c, o.kind});
        if (!o.ok) failure(o.error.empty() ? "wrong answer" : o.error);
        last_end[std::size_t(c)] = now_s();
      }
    } catch (...) {
      // Anything thrown outside a query (allocation of the sample log, a
      // non-standard exception) ends this client and fails the run.
      ++r.attempted;
      failure("client stopped by an exception outside a query");
    }
  };
  if (clients == 1) {
    body(0);
  } else {
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c) threads.emplace_back(body, c);
    for (auto& t : threads) t.join();
  }
  w.loop_end(b, traced);
  loop_result all;
  for (const auto& r : per) {
    all.samples.insert(all.samples.end(), r.samples.begin(), r.samples.end());
    all.attempted += r.attempted;
    all.failed += r.failed;
    all.errors.insert(all.errors.end(), r.errors.begin(), r.errors.end());
  }
  all.elapsed = *std::max_element(last_end.begin(), last_end.end()) - start;
  return all;
}

/// merge_buffer + finalize over one query's emitted tuples.
bool fold_probe(workload& w, const graph& g, binding& b, span_log& log,
                std::map<std::string, double>& m) {
  bool ok = true;
  const std::vector<vertex> raw = w.fold_input(g, b);
  for (int i = 0; i < kProbeReps; ++i) {
    scoped_span fold(log, "collector.fold");
    dcl::clique_collector c(w.fold_p());
    {
      scoped_span s(log, "collector.merge_buffer", fold.id());
      c.merge_buffer(raw, /*tuples_presorted=*/true);
    }
    scoped_span s(log, "collector.finalize", fold.id());
    ok = ok && c.finalize_in_place().size() == w.fold_distinct();
  }
  m["collector.fold_s"] = median(log.durations("collector.fold"));
  return ok;
}

/// The fold probe, run on every workload, and the orientation and
/// kernel-twin probes, run only where the session is local_kclist (the
/// layers a congest_sim query never calls).
bool common_probes(workload& w, const graph& g, binding& b, span_log& log,
                   std::map<std::string, double>& m) {
  bool ok = fold_probe(w, g, b, log, m);
  if (w.options().engine != dcl::listing_engine::local_kclist) return ok;
  const auto sh = w.shape_of();
  dcl::enumkernel::dag d;
  for (int i = 0; i < kProbeReps; ++i) {
    scoped_span s(log, "enumkernel.orient");
    d = dcl::enumkernel::orient(
        g, dcl::enumkernel::orientation_policy::degeneracy);
  }
  dcl::runtime::thread_pool pool(sh.threads);
  dcl::runtime::query_scratch scratch;
  for (int i = 0; i < kProbeReps; ++i) {
    scoped_span s(log, "local.count");
    ok = ok && dcl::local::count_cliques_parallel(d, sh.p, pool, scratch,
                                                  kGrain) == w.full_count();
  }
  for (int i = 0; i < kProbeReps; ++i) {
    scoped_span s(log, "local.list");
    ok = ok && dcl::local::list_cliques_parallel(d, sh.p, pool, scratch,
                                                 kGrain)
                       .size() == w.full_count();
  }
  dcl::enumkernel::enum_scratch ws;
  const edge_list& twin = w.twin_edges(g);
  for (int i = 0; i < kProbeReps; ++i) {
    scoped_span s(log, "enumkernel.edges_count");
    std::int64_t count = 0;
    dcl::enumkernel::enumerate_cliques_in_edges(
        twin, sh.p, ws, [&](std::span<const vertex>) { ++count; });
    ok = ok && count == w.twin_count();
  }
  for (const char* name : {"enumkernel.orient", "local.count", "local.list",
                           "enumkernel.edges_count"})
    m[std::string(name) + "_s"] = median(log.durations(name));
  return ok;
}

void note_failures(run_output& out, const loop_result& r) {
  out.attempted += r.attempted;
  out.failed += r.failed;
  for (const auto& e : r.errors)
    if (out.errors.size() < 5) out.errors.push_back(e);
}

}  // namespace

std::vector<std::string> workload_names() {
  return {"congest-ring", "congest-k4", "serve-mix"};
}

run_output run_workload(const run_config& cfg) {
  auto w = make_workload(cfg.workload);
  const auto sh = w->shape_of();
  run_output out;
  span_log log(cfg.trace);
  span_log untraced(false);

  w->make_input(cfg.seed);
  {
    const graph g0 = graph::from_unsorted(w->n, w->edges);
    w->compute_oracle(g0);
  }

  // The measured binding lives for the whole run, as a server's would.
  const auto measured_graph =
      std::make_unique<graph>(graph::from_unsorted(w->n, w->edges));
  const auto measured = w->bind(*measured_graph);
  ++out.attempted;
  if (!w->first_ok(w->first_query(*measured))) {
    ++out.failed;
    out.errors.push_back("wrong answer on the measured binding's warm-up");
  }

  // One cold cycle on a throwaway graph and binding: build the graph from
  // the edge list, bind, answer the first query. The answer is checked
  // after the clock stops.
  const auto cold_cycle = [&]() -> double {
    std::unique_ptr<graph> g;
    std::unique_ptr<binding> b;
    std::optional<dcl::query_result> first;
    double dt = 0.0;
    {
      scoped_span cycle(log, "setup.cycle");
      const double t0 = now_s();
      {
        scoped_span s(log, "graph.build", cycle.id());
        g = std::make_unique<graph>(graph::from_unsorted(w->n, w->edges));
      }
      {
        scoped_span s(log, "api.bind", cycle.id());
        b = w->bind(*g);
      }
      {
        scoped_span s(log, "api.first_query", cycle.id());
        first.emplace(w->first_query(*b));
      }
      dt = now_s() - t0;
    }
    ++out.attempted;
    if (!w->first_ok(*first)) {
      ++out.failed;
      out.errors.push_back("wrong first answer in a set-up cycle");
    }
    return dt;
  };

  // The window is cut into blocks, each preceded by a cold cycle, so
  // set-up is sampled across the run rather than in one burst; setup_s and
  // queries_per_s are medians over blocks, so a burst of load from outside
  // the process spoils one block, not the figure. A traced run alternates
  // untraced and traced blocks. Peak RSS is the highest of the blocks'
  // high-water marks, each reset before the block's warm-up when the kernel
  // allows it, so the cold cycles stay out of it.
  std::vector<double> setup, rss;
  std::vector<loop_result> plain, traced;
  bool rss_per_block = true;
  for (int b = 0; b < kBlocks; ++b) {
    setup.push_back(cold_cycle());
    rss_per_block = reset_peak_rss() && rss_per_block;
    // The cold cycle and the trim leave the heap cold; untimed queries
    // bring the measured binding back to its steady state before the
    // window opens (they fall inside the block's peak-RSS interval).
    for (int i = 0; i < kWarmQueries; ++i) {
      ++out.attempted;
      if (!w->first_ok(w->first_query(*measured))) {
        ++out.failed;
        out.errors.push_back("wrong answer in a block's warm-up");
      }
    }
    const bool trace_block = cfg.trace && b % 2 == 1;
    loop_result r =
        closed_loop(*w, *measured, sh.clients, cfg.seconds / kBlocks,
                    trace_block ? log : untraced, trace_block);
    note_failures(out, r);
    (trace_block ? traced : plain).push_back(std::move(r));
    rss.push_back(peak_rss_mb());
  }

  out.info.push_back({"vertices", double(w->n), "count"});
  out.info.push_back({"edges", double(w->edges.size()), "count"});
  out.info.push_back({"threads", double(sh.threads), "count"});
  out.info.push_back({"clients", double(sh.clients), "count"});
  out.info.push_back({"blocks", double(kBlocks), "count"});
  out.info.push_back({"rss_peak_per_block", rss_per_block ? 1.0 : 0.0, "bool"});
  w->describe(out.info);

  // Latency percentiles pool every timed sample of the run's blocks, so
  // the p90 has a tenth of the run's samples beyond it, not a tenth of one
  // block's. Throughput is a median over blocks.
  const auto pooled = [](const std::vector<loop_result>& blocks) {
    std::vector<double> v;
    for (const auto& r : blocks)
      for (const auto& x : r.latencies()) v.push_back(x);
    return v;
  };
  const auto block_qps = [](const std::vector<loop_result>& blocks) {
    std::vector<double> v;
    for (const auto& r : blocks)
      v.push_back(r.elapsed > 0 ? double(r.attempted) / r.elapsed : 0.0);
    return median(v);
  };

  if (!cfg.trace) {
    const std::vector<double> lat = pooled(plain);
    const double p90 = percentile(lat, 0.9);
    const double values[] = {median(setup), percentile(lat, 0.5), p90,
                             block_qps(plain),
                             *std::max_element(rss.begin(), rss.end())};
    for (std::size_t i = 0; i < kEndToEnd.size(); ++i)
      out.metrics.push_back(
          {kEndToEnd[i].first, values[i], kEndToEnd[i].second});
    out.info.push_back({"samples", double(lat.size()), "count"});
    out.info.push_back(
        {"samples_beyond_p90",
         double(std::count_if(lat.begin(), lat.end(),
                              [&](double x) { return x > p90; })),
         "count"});
  } else {
    std::vector<sample> traced_samples;
    for (const auto& r : traced)
      traced_samples.insert(traced_samples.end(), r.samples.begin(),
                            r.samples.end());
    std::map<std::string, double> m;
    for (const char* name : {"graph.build", "api.bind", "api.run"})
      m[std::string(name) + "_s"] = median(log.durations(name));
    bool ok = common_probes(*w, *measured_graph, *measured, log, m);
    ok = w->layer_metrics(*measured_graph, *measured, log, traced_samples, m) &&
         ok;
    if (!ok) {
      ++out.failed;
      out.errors.push_back("a per-layer probe returned a wrong answer");
    }
    const double p50_plain = percentile(pooled(plain), 0.5);
    m["trace.overhead_frac"] =
        p50_plain > 0 ? percentile(pooled(traced), 0.5) / p50_plain - 1.0
                      : 0.0;
    for (const auto& [name, unit] : kPerLayer) {
      const auto it = m.find(name);
      out.metrics.push_back({name, it == m.end() ? 0.0 : it->second, unit});
    }
    for (const auto& t : log.totals())
      out.info.push_back({"self_s." + t.name, t.self_s, "s"});
    if (!cfg.spans_path.empty()) {
      std::ofstream f(cfg.spans_path);
      log.write_jsonl(f);
      if (!f) throw std::runtime_error("cannot write " + cfg.spans_path);
    }
  }
  out.correct = out.failed == 0;
  return out;
}

}  // namespace perfbench
