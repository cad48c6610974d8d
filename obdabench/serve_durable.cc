// serve_durable: a closed loop of 2 keep-alive HTTP connections against an
// in-process HttpServer with 2 workers, hosting one store-backed tenant over
// ds2 with Tw plans.  The mix is mostly memoized repeated executes, a fifth
// unique-limits misses, and one write in fifty, each followed by the
// writer's own incremental execute.  Every slice serves a tenant freshly
// seeded from the base data and ends with a checkpoint, a fixed log tail and
// restarts: the server stops, the tenant re-registers from its store, and
// the first answer is awaited.

#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "common.h"
#include "engine/engine.h"
#include "server/api.h"
#include "server/client.h"
#include "server/http_server.h"
#include "server/registry.h"
#include "store/store.h"
#include "syntax/parser.h"
#include "workloads/paper_workloads.h"

namespace obdabench {
namespace {

constexpr char kTenant[] = "paper";
constexpr int kClients = 2;
constexpr int kServerWorkers = 2;
constexpr int kFactsPerWrite = 2;
// Per client and round, in seeded order: 12 repeated and 3 unique-limits
// executes of each served query, and 2 writes, each followed by one
// incremental execute -- 94 requests.
constexpr int kRepeatedPerQuery = 12;
constexpr int kUniquePerQuery = 3;
constexpr int kWritesPerRound = 2;
// A companion runs this many rounds per slice.
constexpr int kCompanionRoundsPerSlice = 4;
// Every slice ends with restarts: the server stops, the tenant re-registers
// from its store, and the first answer is awaited.  The log tail each
// replays is written after an explicit checkpoint, far below the store's
// compaction threshold, so its length is the same in every run.
constexpr int kRestartsPerSlice = 3;
constexpr int kTailBatches = 64;
// Served queries: cheap ds2 sequence prefixes, all rewritten with Tw.
struct ServedQuery {
  const char* sequence;
  int len;
};
const ServedQuery kQueries[] = {
    {owlqr::kSequence1, 3}, {owlqr::kSequence1, 4}, {owlqr::kSequence2, 2},
    {owlqr::kSequence2, 4}, {owlqr::kSequence3, 4}, {owlqr::kSequence3, 5},
};
constexpr int kFreshQuery = 1;  // The writer's own read: seq1 prefix 4.

std::string QueryText(const ServedQuery& q) {
  std::string text = "q(x0, x" + std::to_string(q.len) + ") :- ";
  for (int i = 0; i < q.len; ++i) {
    if (i > 0) text += ", ";
    text += std::string(1, q.sequence[i]) + "(x" + std::to_string(i) + ", x" +
            std::to_string(i + 1) + ")";
  }
  return text;
}

owlqr::api::WireExecuteRequest WireRequest(int query, long unique_key,
                                           bool incremental) {
  owlqr::api::WireExecuteRequest req;
  req.query = QueryText(kQueries[query]);
  req.rewriter = "tw";
  req.exec.num_threads = 1;
  req.exec.incremental = incremental;
  // A distinct (answer-neutral) tuple cap makes a distinct answer-cache key;
  // the other requests carry no limit, which incremental execution needs.
  if (unique_key > 0) {
    req.exec.limits.max_generated_tuples = 1'000'000'000L + unique_key;
  }
  return req;
}

uint64_t OrderedHash(const std::vector<std::vector<std::string>>& answers) {
  uint64_t h = 1469598103934665603ull;
  for (const auto& tuple : answers) {
    for (const std::string& s : tuple) {
      for (char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ull;
      }
      h ^= 0xff;
      h *= 1099511628211ull;
    }
    h ^= 0xfe;
    h *= 1099511628211ull;
  }
  return h;
}

uint64_t SetHash(std::vector<std::vector<std::string>> answers) {
  std::sort(answers.begin(), answers.end());
  return OrderedHash(answers);
}

// One answered execute, as the client saw it.
struct Seen {
  int query = 0;
  bool unique = false;
  bool incremental = false;
  uint64_t version = 0;
  uint64_t ordered_hash = 0;
  uint64_t set_hash = 0;
};

struct Ack {
  uint64_t version = 0;
  owlqr::api::WireFactBatch batch;
};

// What one client thread did.
struct ClientLog {
  std::vector<double> all_ms, apply_ms, fresh_ms;
  std::vector<Seen> seen;
  std::vector<Ack> acks;
  long executes = 0;
  long requests = 0;
  long failed = 0;
  long fresh_reads = 0;
  long fresh_incremental = 0;
};

// R-edges between existing ds2 vertices that are new to the base data and
// to every earlier write: stream `lane` of `lanes` walks its own residue
// class of a seeded permutation of all vertex pairs.  Fresh individuals are
// avoided because they grow the active domain, which every Tw rewriting over
// arbitrary instances ranges over; S-edges are avoided because the base data
// has none, so each one opens many new paths.  Either makes every later
// request slower within one run.
class EdgeStream {
 public:
  static constexpr int kLanes = 4;  // Two clients, the log tail, the trace.

  EdgeStream(const owlqr::DataInstance* base, int num_vertices, int lane,
             uint64_t seed)
      : base_(base),
        n_(num_vertices),
        lane_(lane),
        offset_(Rng(seed).Next() %
                (static_cast<uint64_t>(num_vertices) * num_vertices)),
        r_id_(base->vocabulary()->FindPredicate("R")) {}

  owlqr::api::WireFactBatch NextBatch() {
    owlqr::api::WireFactBatch batch;
    while (static_cast<int>(batch.roles.size()) < kFactsPerWrite) {
      const uint64_t pairs = static_cast<uint64_t>(n_) * n_;
      // 7919 is prime and coprime to every ds2 pair count, so this walks a
      // permutation of the pairs.
      const uint64_t k = next_++ * kLanes + lane_;
      const uint64_t idx = (k * 7919 + offset_) % pairs;
      const std::string subject = "2_v" + std::to_string(idx / n_);
      const std::string object = "2_v" + std::to_string(idx % n_);
      owlqr::Vocabulary* vocab = base_->vocabulary();
      if (base_->HasRoleAssertion(r_id_, vocab->FindIndividual(subject),
                                  vocab->FindIndividual(object))) {
        continue;
      }
      batch.roles.push_back({"R", subject, object});
    }
    return batch;
  }

 private:
  const owlqr::DataInstance* const base_;
  const int n_;
  const int lane_;
  const uint64_t offset_;
  const int r_id_;
  uint64_t next_ = 0;
};

enum class Op { kRepeated, kUnique, kWrite };
struct RoundOp {
  Op op;
  int query;
};

// One client connection's state across slices: its seeded request order,
// its unique-limits counter and what it saw.
class Client {
 public:
  Client(int client, const Options& options)
      : client_(client),
        rng_(options.seed * 0x94d049bb133111ebull + 17 + client),
        request_base_(static_cast<long>(client) << 32) {
    for (int q = 0; q < static_cast<int>(std::size(kQueries)); ++q) {
      round_ops_.insert(round_ops_.end(), kRepeatedPerQuery,
                        {Op::kRepeated, q});
      round_ops_.insert(round_ops_.end(), kUniquePerQuery, {Op::kUnique, q});
    }
    round_ops_.insert(round_ops_.end(), kWritesPerRound,
                      {Op::kWrite, kFreshQuery});
  }

  // Runs `rounds` rounds over one keep-alive connection, and more while
  // `more()` holds.
  template <typename More>
  void RunSlice(int port, int rounds, More more, EdgeStream* edges,
                Tracer* tracer) {
    owlqr::server::HttpClient http("127.0.0.1", port);
    for (int round = 0; round < rounds || more(); ++round) {
      rng_.Shuffle(&round_ops_);
      for (const RoundOp& op : round_ops_) {
        if (op.op == Op::kWrite) {
          Write(&http, edges, tracer);
        } else {
          Execute(&http, op.query, op.op == Op::kUnique, false, tracer);
        }
      }
    }
  }

  ClientLog& log() { return log_; }

 private:
  double Execute(owlqr::server::HttpClient* http, int query, bool unique,
                 bool incremental, Tracer* tracer) {
    const long key = unique ? 1 + client_ + kClients * unique_counter_++ : 0;
    owlqr::api::WireExecuteRequest req = WireRequest(query, key, incremental);
    owlqr::api::WireExecuteResult result;
    SpanScope span(tracer, "http.execute", -1, request_base_ + log_.requests);
    const Clock::time_point t = Clock::now();
    owlqr::Status s = http->Execute(kTenant, req, &result);
    const double ms = MsSince(t);
    ++log_.requests;
    ++log_.executes;
    log_.all_ms.push_back(ms);
    if (!s.ok()) {
      ++log_.failed;
      std::fprintf(stderr, "serve_durable: execute failed: %s\n",
                   s.ToString().c_str());
      return ms;
    }
    Seen seen;
    seen.query = query;
    seen.unique = unique || incremental;
    seen.incremental = result.incremental;
    seen.version = result.snapshot_version;
    seen.ordered_hash = OrderedHash(result.answers);
    seen.set_hash = SetHash(std::move(result.answers));
    log_.seen.push_back(seen);
    return ms;
  }

  // An acknowledged write, then the writer's own incremental read.
  void Write(owlqr::server::HttpClient* http, EdgeStream* edges,
             Tracer* tracer) {
    owlqr::api::WireFactBatch batch = edges->NextBatch();
    uint64_t version = 0;
    owlqr::Status s;
    double ms = 0;
    {
      SpanScope span(tracer, "http.apply_facts", -1,
                     request_base_ + log_.requests);
      const Clock::time_point t = Clock::now();
      s = http->ApplyFacts(kTenant, batch, &version);
      ms = MsSince(t);
    }
    ++log_.requests;
    log_.all_ms.push_back(ms);
    log_.apply_ms.push_back(ms);
    if (!s.ok()) {
      ++log_.failed;
      std::fprintf(stderr, "serve_durable: apply failed: %s\n",
                   s.ToString().c_str());
      return;
    }
    log_.acks.push_back(Ack{version, std::move(batch)});
    const size_t before = log_.seen.size();
    log_.fresh_ms.push_back(Execute(http, kFreshQuery, false, true, tracer));
    ++log_.fresh_reads;
    if (log_.seen.size() > before && log_.seen.back().incremental) {
      ++log_.fresh_incremental;
    }
  }

  const int client_;
  Rng rng_;
  const long request_base_;
  long unique_counter_ = 0;
  std::vector<RoundOp> round_ops_;
  ClientLog log_;
};

struct Tenant {
  std::unique_ptr<owlqr::server::EngineRegistry> registry;
  std::unique_ptr<owlqr::api::Service> service;
  std::unique_ptr<owlqr::server::HttpServer> server;
  std::shared_ptr<owlqr::server::Tenant> tenant;
};

owlqr::server::RegistryOptions MakeRegistryOptions(const std::string& dir) {
  owlqr::server::RegistryOptions options;
  options.max_tenants = 1;
  options.process_slots = kServerWorkers;
  options.engine.answer_cache_capacity = 256;
  options.store.dir = dir;
  // Appends are acknowledged once written to the log, without fsync: an
  // fsync on the shared virtual disk of the 4-vCPU VM this was tuned on
  // took 0.13 ms at the median and over 1 s at the 99th percentile, which no
  // run can average out.  Checkpoints still fsync their segments (store.h);
  // the default compaction threshold keeps them between the timed loops.
  options.store.fsync = false;
  return options;
}

// Registers the tenant (a fresh store is seeded from `data`; an existing one
// is recovered and `data` ignored) and starts serving it.
owlqr::Status StartTenant(const std::string& dir,
                          const owlqr::DatasetConfig* config, Tenant* out) {
  out->registry = std::make_unique<owlqr::server::EngineRegistry>(
      MakeRegistryOptions(dir));
  auto vocab = std::make_unique<owlqr::Vocabulary>();
  std::unique_ptr<owlqr::TBox> tbox = owlqr::MakeExample11TBox(vocab.get());
  owlqr::DataInstance data =
      config != nullptr ? owlqr::GenerateDataset(vocab.get(), *tbox, *config)
                        : owlqr::DataInstance(vocab.get());
  owlqr::Status s = out->registry->Register(kTenant, std::move(vocab), *tbox,
                                            data, nullptr, &out->tenant);
  if (!s.ok()) return s;
  out->service = std::make_unique<owlqr::api::Service>(out->registry.get());
  owlqr::server::HttpServerOptions http;
  http.num_workers = kServerWorkers;
  out->server =
      std::make_unique<owlqr::server::HttpServer>(out->service.get(), http);
  return out->server->Start();
}

void StopTenant(Tenant* t) {
  if (t->server != nullptr) t->server->Stop();
  t->server.reset();
  t->service.reset();
  t->tenant.reset();
  t->registry.reset();
}

// The reference: a fresh in-memory engine over the same base data that
// replays exactly the acknowledged batches, in version order.
class Reference {
 public:
  explicit Reference(const owlqr::DatasetConfig& config)
      : tbox_(owlqr::MakeExample11TBox(&vocab_)),
        base_(owlqr::GenerateDataset(&vocab_, *tbox_, config)) {
    engine_ = std::make_unique<owlqr::Engine>(*tbox_, base_);
    for (const ServedQuery& q : kQueries) {
      owlqr::PrepareOptions prepare;
      prepare.auto_kind = false;
      prepare.kind = owlqr::RewriterKind::kTw;
      std::string error;
      auto cq = owlqr::ParseQuery(QueryText(q), &vocab_, &error);
      plans_.push_back(engine_->Prepare(*cq, prepare).query);
    }
  }
  uint64_t version() const { return engine_->snapshot_version(); }
  bool Apply(const owlqr::api::WireFactBatch& batch, uint64_t* version) {
    owlqr::FactBatch facts;
    for (const auto& r : batch.roles) {
      facts.roles.push_back({vocab_.FindPredicate(r.role),
                             vocab_.InternIndividual(r.subject),
                             vocab_.InternIndividual(r.object)});
    }
    return engine_->ApplyFactsOrError(facts, version).ok();
  }
  uint64_t AnswerSetHash(int query) {
    owlqr::ExecuteResult r = engine_->Execute(*plans_[query]);
    std::vector<std::vector<std::string>> names;
    for (const auto& tuple : r.answers) {
      std::vector<std::string> row;
      for (int id : tuple) row.push_back(vocab_.IndividualName(id));
      names.push_back(std::move(row));
    }
    return SetHash(std::move(names));
  }
  long num_atoms() const { return engine_->snapshot()->num_atoms(); }
  bool InBase(const owlqr::api::WireFactBatch::RoleFact& fact) const {
    return base_.HasRoleAssertion(vocab_.FindPredicate(fact.role),
                                  vocab_.FindIndividual(fact.subject),
                                  vocab_.FindIndividual(fact.object));
  }

 private:
  owlqr::Vocabulary vocab_;
  std::unique_ptr<owlqr::TBox> tbox_;
  owlqr::DataInstance base_;
  std::unique_ptr<owlqr::Engine> engine_;
  std::vector<std::shared_ptr<const owlqr::PreparedQuery>> plans_;
};

std::string ExecuteBody(int query, long unique_key, bool incremental) {
  return owlqr::api::ExecuteRequestToJson(
      WireRequest(query, unique_key, incremental));
}

// Per-layer self times on the recovered tenant: the same requests replayed
// through each boundary in turn (HTTP round trip, Service::Handle,
// Engine::Execute, Evaluator::Run), plus the write path's pieces.
void TraceLayers(const Options& options, Tenant* t, EdgeStream* edges,
                 Tracer* tracer, const std::string& scratch_dir,
                 Report* report) {
  owlqr::server::HttpClient http("127.0.0.1", t->server->port());
  owlqr::Engine* engine = t->tenant->engine();
  const int num_queries = static_cast<int>(std::size(kQueries));
  std::vector<double> rt, handle, parse, encode, overhead;
  Rng rng(options.seed + 404);
  owlqr::Vocabulary parse_vocab;
  owlqr::MakeExample11TBox(&parse_vocab);
  for (int i = 0; i < 200; ++i) {
    const int q = rng.Below(num_queries);
    const std::string body = ExecuteBody(q, 0, false);
    int status = 0;
    std::string response;
    http.Post("/v1/t/" + std::string(kTenant) + "/execute", body, &status,
              &response);  // Fills the answer cache: the replays are hits.
    {
      SpanScope span(tracer, "http.execute", -1, i);
      const Clock::time_point start = Clock::now();
      http.Post("/v1/t/" + std::string(kTenant) + "/execute", body, &status,
                &response);
      rt.push_back(MsSince(start));
    }
    owlqr::api::Request request;
    request.verb = owlqr::api::Verb::kExecute;
    request.tenant = kTenant;
    request.body = body;
    {
      SpanScope span(tracer, "api.handle", -1, i);
      const Clock::time_point start = Clock::now();
      t->service->Handle(request);
      handle.push_back(MsSince(start));
    }
    std::string error;
    const std::string text = QueryText(kQueries[q]);
    SpanScope span(tracer, "syntax.parse_query", -1, i);
    const Clock::time_point start = Clock::now();
    owlqr::ParseQuery(text, &parse_vocab, &error);
    parse.push_back(MsSince(start));
  }
  // Uncached executes against Evaluator::Run on the same pinned snapshot,
  // and the JSON encoding of their results.
  std::shared_ptr<const owlqr::DataSnapshot> snap = engine->snapshot();
  for (int q = 0; q < num_queries; ++q) {
    owlqr::PrepareOptions prepare;
    prepare.auto_kind = false;
    prepare.kind = owlqr::RewriterKind::kTw;
    std::string error;
    std::optional<owlqr::ConjunctiveQuery> cq;
    {
      std::unique_lock<std::shared_mutex> lock(t->tenant->vocab_mutex());
      cq = owlqr::ParseQuery(QueryText(kQueries[q]), t->tenant->vocabulary(),
                             &error);
    }
    auto plan = engine->Prepare(*cq, prepare).query;
    std::vector<double> ex, run, enc;
    for (int rep = 0; rep < 5; ++rep) {
      owlqr::ExecuteRequest req = WireRequest(q, 900'000 + rep + 10 * q, false)
                                      .exec;
      owlqr::ExecuteResult result;
      {
        SpanScope span(tracer, "engine.execute", -1, q);
        const Clock::time_point start = Clock::now();
        result = engine->Execute(*plan, req);
        ex.push_back(MsSince(start));
      }
      {
        owlqr::Evaluator eval(plan->program(), snap);
        eval.set_join_order_hints(plan->join_order_hints());
        SpanScope span(tracer, "ndl.run", -1, q);
        const Clock::time_point start = Clock::now();
        eval.Run(req);
        run.push_back(MsSince(start));
      }
      std::shared_lock<std::shared_mutex> lock(t->tenant->vocab_mutex());
      SpanScope span(tracer, "api.encode", -1, q);
      const Clock::time_point start = Clock::now();
      owlqr::api::ExecuteResultToJson(result, *t->tenant->vocabulary());
      enc.push_back(MsSince(start));
    }
    overhead.push_back(Median(ex) - Median(run));
    encode.push_back(Median(enc));
  }
  report->SetLayer("server.handle_hit_ms", Median(handle), "ms");
  report->SetLayer("server.wire_hit_ms", Median(rt) - Median(handle), "ms");
  report->SetLayer("syntax.parse_query_ms", Median(parse), "ms");
  report->SetLayer("server.encode_ms", Mean(encode), "ms");
  report->SetLayer("engine.execute_overhead_ms", Mean(overhead), "ms");

  // The write path: Service::Handle(apply-facts), then the incremental read
  // through Engine::Execute; DataSnapshot::WithFacts on a pinned snapshot.
  std::vector<double> apply, fresh, with_facts, index_builds;
  owlqr::PrepareOptions prepare;
  prepare.auto_kind = false;
  prepare.kind = owlqr::RewriterKind::kTw;
  std::optional<owlqr::ConjunctiveQuery> fresh_cq;
  {
    std::string error;
    std::unique_lock<std::shared_mutex> lock(t->tenant->vocab_mutex());
    fresh_cq = owlqr::ParseQuery(QueryText(kQueries[kFreshQuery]),
                                 t->tenant->vocabulary(), &error);
  }
  auto fresh_plan = engine->Prepare(*fresh_cq, prepare).query;
  owlqr::ExecuteRequest incremental;
  incremental.incremental = true;
  engine->Execute(*fresh_plan, incremental);

  const int num_vertices = static_cast<int>(snap->active_domain().size());
  const int r_id = t->tenant->vocabulary()->FindPredicate("R");
  for (int i = 0; i < 20; ++i) {
    owlqr::api::Request request;
    request.verb = owlqr::api::Verb::kApplyFacts;
    request.tenant = kTenant;
    request.body = owlqr::api::FactBatchToJson(edges->NextBatch());
    {
      SpanScope span(tracer, "api.handle_apply", -1, i);
      const Clock::time_point start = Clock::now();
      t->service->Handle(request);
      apply.push_back(MsSince(start));
    }
    {
      SpanScope span(tracer, "engine.execute_fresh", -1, i);
      const Clock::time_point start = Clock::now();
      owlqr::ExecuteResult r = engine->Execute(*fresh_plan, incremental);
      fresh.push_back(MsSince(start));
      index_builds.push_back(static_cast<double>(r.stats.index_builds));
    }
    owlqr::FactBatch batch;
    for (int f = 0; f < kFactsPerWrite; ++f) {
      batch.roles.push_back({r_id, snap->active_domain()[rng.Below(num_vertices)],
                             snap->active_domain()[rng.Below(num_vertices)]});
    }
    SpanScope span(tracer, "data.with_facts", -1, i);
    const Clock::time_point start = Clock::now();
    snap->WithFacts(batch);
    with_facts.push_back(MsSince(start));
  }
  report->SetLayer("server.handle_apply_ms", Median(apply), "ms");
  report->SetLayer("engine.fresh_read_ms", Median(fresh), "ms");
  report->SetLayer("data.with_facts_ms", Median(with_facts), "ms");
  report->SetLayer("data.index_builds_after_write", Mean(index_builds),
                   "builds/op");

  std::vector<double> checkpoint;
  for (int i = 0; i < 3; ++i) {
    SpanScope span(tracer, "engine.checkpoint", -1, i);
    const Clock::time_point start = Clock::now();
    engine->Checkpoint();
    checkpoint.push_back(MsSince(start));
  }
  report->SetLayer("store.checkpoint_ms", Median(checkpoint), "ms");

  // DurableStore::AppendBatch alone, on a scratch store.
  std::shared_ptr<owlqr::store::DurableStore> store;
  owlqr::store::StoreOptions store_options;
  store_options.dir = scratch_dir;
  store_options.fsync = true;
  store_options.compact_log_bytes = 0;
  owlqr::Vocabulary store_vocab;
  owlqr::store::RecoveredState recovered;
  if (!owlqr::store::DurableStore::Open(store_options, &store).ok() ||
      !store->Recover(&store_vocab, 1, 0, &recovered).ok() ||
      !store->Checkpoint(*owlqr::DataSnapshot::FromInstance(
                             owlqr::DataInstance(&store_vocab)),
                         store_vocab)
           .ok()) {
    report->CheckFailed("serve_durable: scratch store did not open");
    return;
  }
  std::vector<double> append;
  const uint64_t bytes_before = store->counters().log_bytes;
  long facts = 0;
  for (int i = 0; i < 20; ++i) {
    owlqr::api::WireFactBatch wire = edges->NextBatch();
    owlqr::store::NamedFactBatch named;
    for (const auto& r : wire.roles) {
      named.roles.push_back({r.role, r.subject, r.object});
    }
    facts += static_cast<long>(named.roles.size());
    SpanScope span(tracer, "store.append", -1, i);
    const Clock::time_point start = Clock::now();
    store->AppendBatch(static_cast<uint64_t>(i + 2), named);
    append.push_back(MsSince(start));
  }
  report->SetLayer("store.append_ms", Median(append), "ms");
  report->SetLayer("store.log_bytes_per_fact",
                   static_cast<double>(store->counters().log_bytes -
                                       bytes_before) /
                       static_cast<double>(facts),
                   "bytes");
}

// Confines the calling thread, and every thread it starts afterwards, to
// two of the CPUs it may run on: pair `pair` of them, round-robin.  The
// phase's four busy threads (two clients, two server workers) then share
// a fixed pair of CPUs, so that their placement, and the cross-CPU
// wake-ups that every round trip pays, is the same in every run.  On the
// 4-vCPU VM this was tuned on, 17 serve phases on all four CPUs read a
// median round trip of 0.137-0.274 ms (quartile spread 0.14 of the
// median), and 16 on two CPUs, alternating with them, read 0.119-0.159 ms
// (0.08), with 8% more requests per second.  Each slice's tenant is served
// on the next pair, so that the phase's figures average over all CPUs,
// whose speeds differ on a shared host (see paper_cold.cc).
void PinToCpuPair(int pair) {
  static const std::vector<int> cpus = [] {
    std::vector<int> allowed;
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
      for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &set)) allowed.push_back(cpu);
      }
    }
    return allowed;
  }();
  if (cpus.size() < 2) return;
  cpu_set_t pinned;
  CPU_ZERO(&pinned);
  CPU_SET(cpus[(2 * pair) % cpus.size()], &pinned);
  CPU_SET(cpus[(2 * pair + 1) % cpus.size()], &pinned);
  sched_setaffinity(0, sizeof(pinned), &pinned);
}

// What one slice's tenant acknowledged and answered, for the output checks.
struct SliceLog {
  std::vector<Seen> seen;  // Served answers and the first after each restart.
  std::vector<Ack> acks;   // Acknowledged batches, serving and tail.
  long expected_atoms = 0;  // The base plus the distinct acknowledged facts.
};

long DistinctFacts(const std::vector<Ack>& acks) {
  std::set<std::string> facts;
  for (const Ack& a : acks) {
    for (const auto& r : a.batch.roles) {
      facts.insert(r.role + "(" + r.subject + "," + r.object + ")");
    }
  }
  return static_cast<long>(facts.size());
}

// Checks one slice against a reference engine over the base data that
// replays exactly the slice's acknowledged batches, in version order: every
// answered execute equals the reference at the response's version, and
// every response for one (query, version) under the repeated limits is
// byte-identical (the memoized hits equal the miss that filled them).
void CheckSlice(const owlqr::DatasetConfig& config, uint64_t base_version,
                SliceLog* log, Report* report) {
  std::sort(log->acks.begin(), log->acks.end(),
            [](const Ack& a, const Ack& b) { return a.version < b.version; });
  std::map<std::pair<uint64_t, int>, std::vector<const Seen*>> by_version;
  for (const Seen& seen : log->seen) {
    by_version[{seen.version, seen.query}].push_back(&seen);
  }
  Reference reference(config);
  report->Check(reference.version() == base_version,
                "serve_durable: reference starts at another version");
  size_t next_ack = 0;
  for (const auto& [key, group] : by_version) {
    while (next_ack < log->acks.size() &&
           log->acks[next_ack].version <= key.first) {
      uint64_t version = 0;
      const bool ok = reference.Apply(log->acks[next_ack].batch, &version);
      report->Check(ok && version == log->acks[next_ack].version,
                    "serve_durable: reference diverged at version " +
                        std::to_string(log->acks[next_ack].version));
      ++next_ack;
    }
    const uint64_t expected = reference.AnswerSetHash(key.second);
    const Seen* repeated = nullptr;
    for (const Seen* seen : group) {
      report->Check(seen->set_hash == expected,
                    "serve_durable: query " + std::to_string(key.second) +
                        " at version " + std::to_string(key.first) +
                        " differs from the reference");
      if (seen->unique) continue;
      if (repeated == nullptr) repeated = seen;
      report->Check(seen->ordered_hash == repeated->ordered_hash,
                    "serve_durable: memoized response differs from its miss");
    }
  }
  while (next_ack < log->acks.size()) {
    uint64_t version = 0;
    reference.Apply(log->acks[next_ack++].batch, &version);
  }
  report->Check(reference.num_atoms() == log->expected_atoms,
                "serve_durable: reference atom count differs");
}

}  // namespace

void RunServeDurable(const Options& options, Tracer* tracer, Report* report) {
  PinToCpuPair(0);
  const std::string root = options.out_dir + "/serve-store-" +
                           std::to_string(::getpid());
  std::filesystem::remove_all(root);
  std::filesystem::create_directories(root);
  // Every slice serves a tenant of its own, seeded from the base data, so
  // that each slice serves data of the same size however many writes the
  // slices before it completed (a run that grew one tenant by every write
  // served 26% more atoms at its end, and its last slice was a third
  // slower than its second).
  auto tenant_dir = [&root](int slice) {
    return root + "/tenants-" + std::to_string(slice);
  };

  owlqr::DatasetConfig config = owlqr::Table2Configs(0.1)[1];  // ds2
  Tenant live;
  owlqr::Status s = StartTenant(tenant_dir(0), &config, &live);
  if (!s.ok()) {
    report->CheckFailed("serve_durable: start failed: " + s.ToString());
    StopTenant(&live);
    std::filesystem::remove_all(root);
    return;
  }
  const long base_atoms = live.tenant->engine()->snapshot()->num_atoms();
  const uint64_t base_version = live.tenant->engine()->snapshot_version();
  // The base data again, for the write streams' novelty test.
  owlqr::Vocabulary base_vocab;
  const owlqr::DataInstance base = owlqr::GenerateDataset(
      &base_vocab, *owlqr::MakeExample11TBox(&base_vocab), config);
  std::vector<EdgeStream> edges;
  for (int lane = 0; lane < EdgeStream::kLanes; ++lane) {
    edges.emplace_back(&base, config.num_vertices, lane, options.seed);
  }
  // Every served plan is prepared once on each incarnation of the tenant,
  // outside the timed loops.
  auto warm_up = [](const Tenant& t) {
    owlqr::server::HttpClient http("127.0.0.1", t.server->port());
    for (int q = 0; q < static_cast<int>(std::size(kQueries)); ++q) {
      owlqr::api::WireExecuteResult r;
      http.Execute(kTenant, WireRequest(q, 0, false), &r);
    }
  };
  warm_up(live);

  std::vector<Client> clients;
  for (int c = 0; c < kClients; ++c) clients.emplace_back(c, options);
  std::vector<SliceLog> slice_logs(options.slices);
  std::vector<double> recovery_s;
  double wall_ms = 0;  // Active serving time, summed over the slices.
  long server_count = 0, coalesced = 0, tail_failed = 0, segments = 0;
  owlqr::PlanCache::Stats plan_stats;
  owlqr::AnswerCache::Stats answer_stats;

  if (options.main) {
    report->SetEndToEnd(
        "setup_s",
        std::chrono::duration<double>(Clock::now() - options.process_start)
            .count(),
        "s");
  }
  AwaitTurn(options);
  for (int slice = 0; slice < options.slices; ++slice) {
    SliceLog& slice_log = slice_logs[slice];
    owlqr::Engine* engine = live.tenant->engine();
    const owlqr::QueryGovernor::Counters before = engine->governor_counters();
    // A companion runs a fixed number of rounds per slice; the main phase
    // at least one, and more while its active time is short of the slice's
    // share of --seconds.
    const int rounds =
        options.smoke ? 1 : options.main ? 1 : kCompanionRoundsPerSlice;
    const Clock::time_point slice_start = Clock::now();
    auto more = [&] {
      return options.main && !options.smoke &&
             wall_ms + MsSince(slice_start) < SliceEndMs(options, slice);
    };
    {
      std::vector<std::thread> threads;
      for (int c = 0; c < kClients; ++c) {
        threads.emplace_back([&, c] {
          clients[c].RunSlice(live.server->port(), rounds, more, &edges[c],
                              tracer);
        });
      }
      for (std::thread& t : threads) t.join();
    }
    wall_ms += MsSince(slice_start);

    // Governor accounting of this incarnation, before anything else
    // executes on it: the client-side execute count equals admitted +
    // rejected + answer-cache hits + coalesced.
    const owlqr::QueryGovernor::Counters after = engine->governor_counters();
    server_count += (after.admitted - before.admitted) +
                    (after.rejected() - before.rejected()) +
                    (after.answer_cache_hits - before.answer_cache_hits) +
                    (after.coalesced - before.coalesced);
    coalesced += after.coalesced - before.coalesced;
    const owlqr::PlanCache::Stats plans = engine->cache_stats();
    plan_stats.hits += plans.hits;
    plan_stats.misses += plans.misses;
    const owlqr::AnswerCache::Stats answers = engine->answer_cache_stats();
    answer_stats.hits += answers.hits;
    answer_stats.misses += answers.misses;
    uint64_t last_version = base_version;
    for (Client& c : clients) {
      ClientLog& log = c.log();
      for (Ack& a : log.acks) {
        last_version = std::max(last_version, a.version);
        slice_log.acks.push_back(std::move(a));
      }
      slice_log.seen.insert(slice_log.seen.end(), log.seen.begin(),
                            log.seen.end());
      log.acks.clear();
      log.seen.clear();
    }

    // The fixed log tail: checkpoint, then exactly kTailBatches acknowledged
    // batches, all below the compaction threshold.
    s = engine->Checkpoint();
    report->Check(s.ok(), "serve_durable: checkpoint failed: " + s.ToString());
    {
      owlqr::server::HttpClient http("127.0.0.1", live.server->port());
      for (int i = 0; i < kTailBatches; ++i) {
        owlqr::api::WireFactBatch batch = edges[2].NextBatch();
        uint64_t version = 0;
        if (http.ApplyFacts(kTenant, batch, &version).ok()) {
          slice_log.acks.push_back(Ack{version, std::move(batch)});
          last_version = std::max(last_version, version);
        } else {
          ++tail_failed;
        }
      }
    }
    segments += engine->store()->counters().segments_written;
    StopTenant(&live);

    // Restarts: re-register from the store and await the first answer.
    for (int i = 0; i < (options.smoke ? 1 : kRestartsPerSlice); ++i) {
      StopTenant(&live);
      const Clock::time_point start = Clock::now();
      s = StartTenant(tenant_dir(slice), nullptr, &live);
      if (!s.ok()) {
        report->CheckFailed("serve_durable: restart failed: " + s.ToString());
        StopTenant(&live);
        std::filesystem::remove_all(root);
        return;
      }
      owlqr::server::HttpClient http("127.0.0.1", live.server->port());
      owlqr::api::WireExecuteResult first;
      s = http.Execute(kTenant, WireRequest(kFreshQuery, 0, false), &first);
      recovery_s.push_back(MsSince(start) / 1e3);
      report->Check(s.ok() && first.snapshot_version == last_version,
                    "serve_durable: restart answered at version " +
                        std::to_string(first.snapshot_version) +
                        ", expected " + std::to_string(last_version));
      // Checked against the reference with the served answers.
      Seen seen;
      seen.query = kFreshQuery;
      seen.unique = true;
      seen.version = first.snapshot_version;
      seen.set_hash = SetHash(std::move(first.answers));
      slice_log.seen.push_back(seen);
    }
    slice_log.expected_atoms = base_atoms + DistinctFacts(slice_log.acks);
    const long recovered_atoms = live.tenant->engine()->snapshot()->num_atoms();
    report->Check(recovered_atoms == slice_log.expected_atoms,
                  "serve_durable: recovered atom count " +
                      std::to_string(recovered_atoms) + ", expected " +
                      std::to_string(slice_log.expected_atoms));
    if (slice + 1 < options.slices) {
      StopTenant(&live);
      std::filesystem::remove_all(tenant_dir(slice));
      PinToCpuPair(slice + 1);
      s = StartTenant(tenant_dir(slice + 1), &config, &live);
      if (!s.ok()) {
        report->CheckFailed("serve_durable: start failed: " + s.ToString());
        StopTenant(&live);
        std::filesystem::remove_all(root);
        return;
      }
    }
    warm_up(live);
    AwaitTurn(options);
  }
  const Usage usage_after = ReadUsage();
  // Like setup_s, the peak resident set is the main phase's own, taken
  // before the output checks, which are not the workload's.
  if (options.main) {
    report->SetEndToEnd("peak_rss_mb", usage_after.max_rss_mb, "MB");
  }

  ClientLog all;
  for (Client& c : clients) {
    ClientLog& log = c.log();
    all.all_ms.insert(all.all_ms.end(), log.all_ms.begin(), log.all_ms.end());
    all.apply_ms.insert(all.apply_ms.end(), log.apply_ms.begin(),
                        log.apply_ms.end());
    all.fresh_ms.insert(all.fresh_ms.end(), log.fresh_ms.begin(),
                        log.fresh_ms.end());
    all.executes += log.executes;
    all.requests += log.requests;
    all.failed += log.failed;
    all.fresh_reads += log.fresh_reads;
    all.fresh_incremental += log.fresh_incremental;
  }
  report->AddOps(all.requests + kTailBatches * options.slices,
                 all.failed + tail_failed);
  report->SetEndToEnd("serve_req_per_s", all.requests / (wall_ms / 1e3),
                      "req/s");
  report->SetEndToEnd("serve_p50_ms", Median(all.all_ms), "ms");
  report->SetEndToEnd("serve_p99_ms", Percentile(all.all_ms, 0.99), "ms");
  report->SetEndToEnd("fresh_read_p50_ms", Median(all.fresh_ms), "ms");
  report->SetEndToEnd("apply_p50_ms", Median(all.apply_ms), "ms");
  report->SetEndToEnd("recovery_s", Median(recovery_s), "s");

  report->Check(server_count == all.executes,
                "serve_durable: server counted " +
                    std::to_string(server_count) + " executes, clients sent " +
                    std::to_string(all.executes));
  report->SetLayer("engine.plan_hit_ratio",
                   static_cast<double>(plan_stats.hits) /
                       std::max<long>(1, plan_stats.hits + plan_stats.misses),
                   "share");
  report->SetLayer("engine.answer_hit_ratio",
                   static_cast<double>(answer_stats.hits) /
                       std::max<long>(1, answer_stats.hits +
                                             answer_stats.misses),
                   "share");
  report->SetLayer("engine.coalesced", static_cast<double>(coalesced),
                   "count");
  report->SetLayer("engine.delta_ratio",
                   static_cast<double>(all.fresh_incremental) /
                       std::max<long>(1, all.fresh_reads),
                   "share");
  report->SetLayer("store.checkpoints", static_cast<double>(segments),
                   "count");
  owlqr::Engine* recovered_engine = live.tenant->engine();
  const owlqr::store::StoreCounters store_counters =
      recovered_engine->store()->counters();
  report->SetLayer("store.recovered_records",
                   static_cast<double>(store_counters.recovered_records),
                   "records");
  report->SetLayer(
      "store.replay_ms_per_record",
      (recovered_engine->recovery_ms() - store_counters.recovery_ms) /
          std::max<double>(1, static_cast<double>(
                                  store_counters.recovered_records)),
      "ms");

  // Output checks against the reference engine, slice by slice.
  for (SliceLog& slice_log : slice_logs) {
    CheckSlice(config, base_version, &slice_log, report);
  }

  if (tracer->enabled()) {
    TraceLayers(options, &live, &edges[3], tracer, root + "/scratch-store",
                report);
  }
  StopTenant(&live);
  std::filesystem::remove_all(root);
}

}  // namespace obdabench
