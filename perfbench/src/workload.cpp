#include "workload.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <map>
#include <stdexcept>
#include <thread>
#include <unordered_set>

#include "adversary/threshold.hpp"
#include "exec/campaign.hpp"
#include "graph/generators.hpp"
#include "io/serialize.hpp"
#include "obs/json.hpp"
#include "svc/engine.hpp"
#include "svc/instance_key.hpp"
#include "svc/wire.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace rmt;

namespace {

constexpr const char* kIdMark = "@ID@";
constexpr std::uint64_t kRootSeed = 4242;  // rmt_serve's default --seed

// ---- instance shapes --------------------------------------------------------

enum class Family { kPaths, kCycle, kWheel, kGnp };
enum class Adv { kTrivial, kThr1, kThr2, kThr3, kRandom };
enum class Know { kAdHoc, kHop1, kHop2, kFull };

/// One cell of a workload's catalog: a shape, a query kind and its weight.
struct Cell {
  Family family;
  std::size_t a_lo, a_hi;  ///< paths: count; cycle/wheel/gnp: node count
  std::size_t b_lo, b_hi;  ///< paths: hops; wheel: spoke stride; gnp: edge percent
  Adv adv;
  Know know;
  const char* kind;
  unsigned weight;  ///< positions per block (a catalog's weights sum to 100)
};

std::size_t draw(Rng& rng, std::size_t lo, std::size_t hi) {
  return std::size_t(rng.uniform(lo, hi));
}

/// A random relabeling of the cell's graph, so every draw is a distinct
/// canonical instance of the same shape and (up to search order) cost.
struct Shape {
  Graph g;
  NodeId dealer = 0, receiver = 0;
};

/// `size` draws the shape's size parameters, `rng` everything else.
Shape base_shape(const Cell& c, Rng& size, Rng& rng) {
  const std::size_t a = draw(size, c.a_lo, c.a_hi);
  const std::size_t b = draw(size, c.b_lo, c.b_hi);
  switch (c.family) {
    case Family::kPaths: {
      Graph g = generators::parallel_paths(a, b);
      const NodeId r = NodeId(g.num_nodes() - 1);
      return {std::move(g), 0, r};
    }
    case Family::kCycle: {
      // Receiver at least two hops from the dealer either way round.
      const NodeId r = NodeId(draw(rng, 2, a - 2));
      return {generators::cycle_graph(a), 0, r};
    }
    case Family::kWheel: {
      const NodeId d = NodeId(draw(rng, 1, a - 1));
      NodeId r = d;
      while (r == d) r = NodeId(draw(rng, 1, a - 1));
      return {generators::generalized_wheel(a, b), d, r};
    }
    case Family::kGnp: {
      Graph g = generators::random_connected_gnp(a, double(b) / 100.0, rng);
      return {std::move(g), 0, NodeId(a - 1)};
    }
  }
  throw std::logic_error("perfbench: unknown family");
}

Instance make_instance(const Cell& c, Rng& size, Rng& rng) {
  const Shape s = base_shape(c, size, rng);
  const std::size_t n = s.g.num_nodes();
  std::vector<NodeId> perm(n);
  for (std::size_t i = 0; i < n; ++i) perm[i] = NodeId(i);
  std::shuffle(perm.begin(), perm.end(), rng.engine());
  Graph g(n);
  for (const Edge& e : s.g.edges()) g.add_edge(perm[e.a], perm[e.b]);
  const NodeId d = perm[s.dealer], r = perm[s.receiver];
  const NodeSet relays = g.nodes() - NodeSet{d, r};
  AdversaryStructure z;
  switch (c.adv) {
    case Adv::kTrivial: z = AdversaryStructure::trivial(); break;
    case Adv::kThr1: z = threshold_structure(relays, 1); break;
    case Adv::kThr2: z = threshold_structure(relays, 2); break;
    case Adv::kThr3: z = threshold_structure(relays, 3); break;
    case Adv::kRandom:
      z = random_structure(g.nodes(), draw(size, 3, 8), draw(size, 2, 4), NodeSet{d, r}, rng);
      break;
  }
  ViewFunction gamma;
  switch (c.know) {
    case Know::kAdHoc: gamma = ViewFunction::ad_hoc(g); break;
    case Know::kHop1: gamma = ViewFunction::k_hop(g, 1); break;
    case Know::kHop2: gamma = ViewFunction::k_hop(g, 2); break;
    case Know::kFull: gamma = ViewFunction::full(g); break;
  }
  return Instance(g, std::move(z), std::move(gamma), d, r);
}

const std::array<const char*, 5> kStrategies = {"silent", "value-flip", "random-lies",
                                                "phantom-world", "two-faced"};

/// A well-formed request for `inst`; simulate draws an admissible
/// corruption set (one of Z's maximal sets), a value and a strategy.
Item make_item(const Instance& inst, const std::string& kind, Rng& rng) {
  Item item;
  item.kind = kind;
  item.text = io::serialize_instance(inst);
  obs::json::Writer w;
  w.begin_object();
  w.field("schema", svc::wire::kRequestSchema);
  w.field("id", kIdMark);
  w.field("kind", kind);
  w.field("instance", item.text);
  item.ckey = svc::key_of_text(item.text).to_hex() + "|" + kind;
  if (kind == "simulate") {
    const auto& sets = inst.adversary().maximal_sets();
    const NodeSet corrupted = sets[rng.index(sets.size())];
    const std::uint64_t value = rng.uniform(0, 999);
    const std::string strategy = kStrategies[rng.index(kStrategies.size())];
    w.key("params").begin_object();
    w.field("value", value);
    w.key("corrupted").begin_array();
    corrupted.for_each([&](NodeId v) { w.value(std::uint64_t(v)); });
    w.end_array();
    w.field("strategy", strategy);
    w.end_object();
    const std::uint64_t seed = exec::derive_seed(kRootSeed, svc::key_of_text(item.text).lo);
    item.ckey += "|corrupt=" + corrupted.to_string() + ";max_rounds=0;seed=" +
                 std::to_string(seed) + ";strategy=" + strategy +
                 ";value=" + std::to_string(value);
  }
  w.end_object();
  const std::string line = w.take();
  const std::size_t at = line.find(kIdMark);
  item.head = line.substr(0, at);
  item.tail = line.substr(at + std::string(kIdMark).size());
  return item;
}

/// Shallow bad lines, each answered by the wire layer with an exact error:
/// a wrong field type, an unknown kind and a bad instance directive.
std::vector<Item> malformed_items(const Item& base) {
  std::vector<Item> out;
  const auto bad = [&](const std::string& tail) {
    Item item;
    item.kind = "malformed";
    item.head = base.head;
    item.tail = tail;
    out.push_back(std::move(item));
  };
  bad("\",\"kind\":\"decide_rmt\",\"instance\":7}");
  bad("\",\"kind\":\"decide_everything\",\"instance\":\"rmt-instance v1\\nnodes 3\\n\"}");
  bad("\",\"kind\":\"decide_rmt\",\"instance\":\"rmt-instance v1\\nnodes 3\\nedge 0 1\\n"
      "edge 1 2\\nlink 0 2\\ndealer 0\\nreceiver 2\\n\"}");
  return out;
}

std::uint64_t mix(std::uint64_t seed, std::uint64_t pos) { return exec::derive_seed(seed, pos); }

/// Generates one item per position of `schedule` (cell indices) with a
/// per-position RNG, in parallel, then drops repeated instance keys in
/// position order and redraws them: deterministic at any thread count.
std::vector<Item> distinct_items(const std::vector<Cell>& cells,
                                 const std::vector<std::size_t>& schedule, std::uint64_t seed) {
  std::vector<Item> out(schedule.size());
  const auto gen = [&](std::size_t i, std::uint64_t attempt) {
    Rng rng(mix(seed, (std::uint64_t(i) << 8) | attempt));
    const Cell& c = cells[schedule[i]];
    const Instance inst = make_instance(c, rng, rng);
    return make_item(inst, c.kind, rng);
  };
  const std::size_t threads =
      std::max<std::size_t>(1, std::min<std::size_t>(4, std::thread::hardware_concurrency()));
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < threads; ++t)
    pool.emplace_back([&, t] {
      for (std::size_t i = t; i < out.size(); i += threads) out[i] = gen(i, 0);
    });
  for (std::thread& th : pool) th.join();
  std::unordered_set<std::string> seen;
  for (std::size_t i = 0; i < out.size(); ++i) {
    for (std::uint64_t attempt = 1; !seen.insert(out[i].ckey.substr(0, 32)).second; ++attempt) {
      if (attempt > 64) throw std::runtime_error("perfbench: cannot draw a distinct instance");
      out[i] = gen(i, attempt);
    }
  }
  return out;
}

/// Block-stratified schedule: every block of sum(weights) positions holds
/// each cell exactly `weight` times, in one fixed interleaving. The mix and
/// its batching — and so the cost of a run — do not drift between seeds;
/// the seed draws the instances.
std::vector<std::size_t> schedule(const std::vector<Cell>& cells, std::size_t n) {
  std::vector<std::size_t> block;
  for (std::size_t c = 0; c < cells.size(); ++c) block.insert(block.end(), cells[c].weight, c);
  Rng rng(0x5c4ed);
  std::shuffle(block.begin(), block.end(), rng.engine());
  std::vector<std::size_t> out;
  out.reserve(n + block.size());
  while (out.size() < n) out.insert(out.end(), block.begin(), block.end());
  out.resize(n);
  return out;
}

// ---- the three workloads -------------------------------------------------

constexpr std::size_t kHot = 256;

/// warm_hits: 256 hot requests. A rank's shape, size and kind are fixed,
/// so the traffic's byte mix is the same for every seed; the seed draws
/// each rank's relabeling, dealer/receiver and adversary sets.
void build_warm_hits(Workload& w) {
  const std::vector<Cell> small = {
      {Family::kCycle, 12, 26, 0, 0, Adv::kTrivial, Know::kAdHoc, "", 1},
      {Family::kPaths, 3, 5, 2, 4, Adv::kTrivial, Know::kAdHoc, "", 1},
  };
  const std::vector<Cell> medium = {
      {Family::kPaths, 3, 5, 2, 4, Adv::kThr1, Know::kHop1, "", 1},
      {Family::kWheel, 12, 20, 2, 3, Adv::kRandom, Know::kHop1, "", 1},
      {Family::kCycle, 18, 26, 0, 0, Adv::kThr2, Know::kHop1, "", 1},
  };
  // The largest texts stop at cycle-26 2-threshold (under 8 KB): the 40 KB
  // 3-threshold texts made the run's speed follow the host's memory traffic
  // (README.md, "Noise").
  const Cell large = {Family::kCycle, 26, 26, 0, 0, Adv::kThr2, Know::kHop1, "", 1};
  const std::array<const char*, 4> kinds = {"decide_rmt", "decide_zpp", "analyze", "simulate"};
  std::unordered_set<std::string> seen;
  for (std::size_t r = 0; r < kHot; ++r) {
    Rng shape(mix(0x5eed, r));
    Rng rng(mix(w.seed, 0x40000 + r));
    // Ranks 2^k - 9 (7, 23, 55, 119, 247) are the five largest texts.
    const bool is_large = r >= 7 && ((r + 9) & (r + 8)) == 0;
    // Every fourth rank is medium: small texts carry about two thirds of
    // the traffic, so the median request sits well inside one size class.
    const Cell& c = is_large ? large
                    : r % 4 == 1 ? medium[shape.index(medium.size())]
                                 : small[shape.index(small.size())];
    for (;;) {
      Rng size = shape;
      const Instance inst = make_instance(c, size, rng);
      // Simulations run on the trivial shapes only: a warm-up that simulates
      // an attack on an ad hoc partial-knowledge instance can take seconds.
      const bool trivial = c.adv == Adv::kTrivial;
      const char* kind = kinds[shape.index(is_large ? 2 : trivial ? 4 : 3)];
      Item item = make_item(inst, kind, rng);
      if (!seen.insert(item.ckey).second) continue;
      w.items.push_back(std::move(item));
      break;
    }
  }
  w.zipf_cdf.resize(kHot);
  double total = 0;
  for (std::size_t r = 0; r < kHot; ++r) total += 1.0 / double(r + 1);
  double acc = 0;
  for (std::size_t r = 0; r < kHot; ++r) w.zipf_cdf[r] = (acc += 1.0 / double(r + 1) / total);
  for (Item& bad : malformed_items(w.items[0])) {
    w.malformed.push_back(w.items.size());
    w.items.push_back(std::move(bad));
  }
  for (std::size_t r = 0; r < kHot; ++r) w.warmup.push_back(r);
}

/// cold_mix: every position a distinct canonical instance; kinds about
/// 40/25/20/15 decide_rmt/decide_zpp/analyze/simulate.
void build_cold_mix(Workload& w, std::uint64_t positions) {
  const std::vector<Cell> cells = {
      // decide_rmt (40)
      {Family::kPaths, 3, 5, 2, 4, Adv::kThr1, Know::kFull, "decide_rmt", 6},
      {Family::kPaths, 5, 5, 4, 4, Adv::kThr2, Know::kFull, "decide_rmt", 1},
      {Family::kPaths, 3, 4, 2, 3, Adv::kThr2, Know::kHop2, "decide_rmt", 4},
      {Family::kCycle, 12, 26, 0, 0, Adv::kTrivial, Know::kAdHoc, "decide_rmt", 8},
      {Family::kCycle, 12, 26, 0, 0, Adv::kThr2, Know::kHop1, "decide_rmt", 6},
      {Family::kWheel, 12, 20, 2, 3, Adv::kRandom, Know::kHop1, "decide_rmt", 7},
      {Family::kGnp, 10, 14, 20, 30, Adv::kRandom, Know::kHop2, "decide_rmt", 8},
      // decide_zpp (25)
      {Family::kPaths, 3, 5, 2, 4, Adv::kThr1, Know::kHop1, "decide_zpp", 6},
      {Family::kCycle, 12, 26, 0, 0, Adv::kThr1, Know::kAdHoc, "decide_zpp", 6},
      {Family::kWheel, 12, 20, 2, 3, Adv::kRandom, Know::kFull, "decide_zpp", 6},
      {Family::kGnp, 10, 14, 20, 30, Adv::kRandom, Know::kHop1, "decide_zpp", 7},
      // analyze (20)
      {Family::kPaths, 3, 5, 2, 4, Adv::kThr1, Know::kHop2, "analyze", 5},
      {Family::kPaths, 5, 5, 4, 4, Adv::kThr2, Know::kFull, "analyze", 1},
      {Family::kCycle, 12, 26, 0, 0, Adv::kTrivial, Know::kHop1, "analyze", 5},
      {Family::kWheel, 12, 20, 2, 3, Adv::kRandom, Know::kHop2, "analyze", 4},
      {Family::kGnp, 10, 14, 20, 30, Adv::kTrivial, Know::kFull, "analyze", 5},
      // simulate (15)
      {Family::kPaths, 3, 4, 2, 3, Adv::kThr1, Know::kFull, "simulate", 5},
      {Family::kCycle, 12, 20, 0, 0, Adv::kTrivial, Know::kAdHoc, "simulate", 5},
      {Family::kWheel, 10, 16, 2, 3, Adv::kTrivial, Know::kHop1, "simulate", 5},
  };
  w.items = distinct_items(cells, schedule(cells, std::size_t(positions)), w.seed);
}

constexpr std::size_t kFill = 20000;

/// restart_store: cheap distinct instances; the first kFill are written to
/// the log by a previous server, the rest are new keys drawn in the window.
void build_restart_store(Workload& w, std::uint64_t positions) {
  const std::vector<Cell> cells = {
      {Family::kCycle, 8, 16, 0, 0, Adv::kTrivial, Know::kAdHoc, "decide_rmt", 20},
      {Family::kGnp, 8, 10, 20, 35, Adv::kRandom, Know::kHop1, "decide_rmt", 20},
      {Family::kPaths, 3, 3, 2, 3, Adv::kThr1, Know::kAdHoc, "decide_zpp", 25},
      {Family::kCycle, 8, 14, 0, 0, Adv::kThr1, Know::kHop1, "analyze", 20},
      {Family::kCycle, 8, 12, 0, 0, Adv::kTrivial, Know::kAdHoc, "simulate", 15},
  };
  const std::size_t fresh = std::size_t(positions / 5 + 1);
  w.items = distinct_items(cells, schedule(cells, kFill + fresh), w.seed);
  w.fill = kFill;
}

}  // namespace

Workload build_workload(const std::string& name, std::uint64_t seed,
                        std::uint64_t max_positions) {
  Workload w;
  w.name = name;
  w.seed = seed;
  if (name == "warm_hits") {
    w.transport = Transport::kTcp;
    w.jobs = 1;  // every timed request is a hit: the compute pool idles
    w.conns = 1;  // one closed loop: a request never queues behind another's parse
    w.batch = 1;
    w.one_cpu = true;
    build_warm_hits(w);
  } else if (name == "cold_mix") {
    w.transport = Transport::kStdio;
    // One worker, pinned with the client: a batch never waits on a second
    // vCPU that the host has descheduled (README.md, "Noise").
    w.jobs = 1;
    w.conns = 1;
    w.batch = 8;
    w.one_cpu = true;
    build_cold_mix(w, max_positions);
  } else if (name == "restart_store") {
    w.transport = Transport::kTcp;
    w.jobs = 2;
    w.conns = 2;
    w.batch = 1;
    build_restart_store(w, max_positions);
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return w;
}

std::size_t Workload::pick(std::uint64_t pos) const {
  if (!zipf_cdf.empty()) {
    // 1% shallow malformed lines at a seeded phase.
    if (pos % 100 == seed % 100) return malformed[(pos / 100) % malformed.size()];
    // Golden-ratio (Weyl) sequence through the Zipf CDF: seeded start,
    // and the rank frequencies of any window match the CDF closely.
    const double start = double(mix(seed, 0x21bf) >> 11) * 0x1.0p-53;
    const double u = std::fmod(start + double(pos) * 0.6180339887498949, 1.0);
    return std::size_t(std::lower_bound(zipf_cdf.begin(), zipf_cdf.end() - 1, u) -
                       zipf_cdf.begin());
  }
  if (fill > 0) {
    if (pos % 5 != 4) return std::size_t(mix(seed, pos) % fill);
    const std::uint64_t i = fill + pos / 5;
    if (i >= items.size()) throw std::out_of_range("restart_store: new-key stream exhausted");
    return std::size_t(i);
  }
  if (pos >= items.size()) throw std::out_of_range(name + ": stream exhausted");
  return std::size_t(pos);
}

std::uint64_t Workload::capacity() const {
  if (!zipf_cdf.empty()) return ~std::uint64_t(0);
  if (fill > 0) return std::uint64_t(items.size() - fill) * 5;
  return items.size();
}

std::uint64_t Workload::stream_digest(std::uint64_t n) const {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto eat = [&h](const std::string& s) {
    for (unsigned char c : s) h = (h ^ c) * 0x100000001b3ull;
    h = (h ^ '\n') * 0x100000001b3ull;
  };
  for (std::size_t i : warmup) eat(items[i].line("w" + std::to_string(i)));
  for (std::size_t i = 0; i < fill; ++i) eat(items[i].line("f" + std::to_string(i)));
  for (std::uint64_t p = 0; p < n && p < capacity(); ++p)
    eat(items[pick(p)].line("q" + std::to_string(p)));
  return h;
}

void compute_expected(Workload& w, std::size_t begin, std::size_t end, std::size_t threads) {
  if (begin >= end) return;
  threads = std::max<std::size_t>(1, threads);
  std::vector<std::thread> pool;
  std::vector<std::string> errors(threads);
  for (std::size_t t = 0; t < threads; ++t)
    pool.emplace_back([&, t] {
      try {
        for (std::size_t i = begin + t; i < end; i += threads) {
          Item& item = w.items[i];
          if (!item.expect.empty()) continue;
          const std::string line = item.line("x");
          std::string resp;
          try {
            svc::wire::ParsedRequest parsed = svc::wire::parse_request(line);
            parsed.request.no_cache = true;
            svc::Engine engine(nullptr);
            const std::vector<svc::Response> out = engine.run({parsed.request});
            resp = svc::wire::format_response(parsed.id, out[0]);
          } catch (const std::exception& e) {
            resp = svc::wire::format_parse_error(svc::wire::extract_id(line), e.what());
          }
          std::string id;
          bool cached = false;
          if (!split_response(resp, id, item.expect, cached))
            throw std::runtime_error("unparseable expected response: " + resp);
          item.solvable = item.expect.find("\"solvable\":true") != std::string::npos ||
                          item.expect.find("\"rmt_solvable\":true") != std::string::npos;
        }
      } catch (const std::exception& e) {
        errors[t] = e.what();
      }
    });
  for (std::thread& th : pool) th.join();
  for (const std::string& e : errors)
    if (!e.empty()) throw std::runtime_error("expected answers: " + e);
}

bool split_response(const std::string& line, std::string& id, std::string& segment,
                    bool& cached) {
  static const std::string kHead = std::string("{\"schema\":\"") + svc::wire::kResponseSchema +
                                   "\",\"id\":\"";
  static const std::string kTail = ",\"cached\":";
  if (line.compare(0, kHead.size(), kHead) != 0) return false;
  const std::size_t id_end = line.find('"', kHead.size());
  const std::size_t tail = line.rfind(kTail);
  if (id_end == std::string::npos || tail == std::string::npos || tail < id_end + 2) return false;
  id.assign(line, kHead.size(), id_end - kHead.size());
  segment.assign(line, id_end + 2, tail - id_end - 2);
  cached = line.compare(tail + kTail.size(), 4, "true") == 0;
  return true;
}

std::string composition(const Workload& w, std::uint64_t n) {
  n = std::min(n, w.capacity());
  static const std::array<std::size_t, 6> kEdges = {512, 2048, 8192, 32768, 65536, ~std::size_t(0)};
  std::array<std::uint64_t, 6> sizes{};
  std::map<std::string, std::uint64_t> kinds;
  std::uint64_t solvable = 0, decided = 0, disk = 0;
  for (std::uint64_t p = 0; p < n; ++p) {
    const std::size_t i = w.pick(p);
    const Item& item = w.items[i];
    const std::size_t bytes = item.head.size() + item.tail.size();
    ++sizes[std::size_t(std::lower_bound(kEdges.begin(), kEdges.end(), bytes) - kEdges.begin())];
    ++kinds[item.kind];
    if (i < w.fill) ++disk;
    if (item.expect.empty()) continue;
    if (item.kind != "simulate" && item.kind != "malformed") {
      ++decided;
      solvable += item.solvable;
    }
  }
  const auto share = [](std::uint64_t a, std::uint64_t b) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.3f", b ? double(a) / double(b) : 0.0);
    return std::string(buf);
  };
  std::string out = "composition of " + std::to_string(n) + " positions: line bytes";
  static const std::array<const char*, 6> kLabels = {"<0.5K", "<2K", "<8K", "<32K", "<64K", ">=64K"};
  for (std::size_t b = 0; b < sizes.size(); ++b)
    if (sizes[b]) out += std::string(" ") + kLabels[b] + "=" + share(sizes[b], n);
  out += "; kinds";
  for (const auto& [k, c] : kinds) out += " " + k + "=" + share(c, n);
  out += "; solvable=" + share(solvable, decided) + " (of " + std::to_string(decided) +
         " checked decides)";
  out += "; disk_resident=" + share(disk, n);
  return out;
}

}  // namespace perfbench
