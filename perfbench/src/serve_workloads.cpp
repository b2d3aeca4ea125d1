// prefill_batch and decode_open: the gpt2-117m surrogate served by
// haan::serve::Server with norm=haan under startup calibration, one worker
// per CPU with one norm thread each, FIFO formation, max_batch 8.
//
// prefill_batch is closed loop and prefill-only (prompts uniform in 64-192
// tokens): packs of ~1,000 rows, so projection and attention kernels set its
// throughput and the scheduler forms only a few packs. decode_open runs in
// chunked execution (prompts 8-48 tokens, geometric decode lengths with mean
// 16, capped at 64): a closed-loop pass measures capacity, then Poisson
// arrivals come in three offered-rate steps at shares of it. The step
// scheduler, sessions, KV caches and cached attention run packs of a few
// rows, and queueing shows in TTFT and time per output token.
#include <algorithm>
#include <cstdio>
#include <cmath>
#include <map>
#include <memory>

#include "core/provider_factory.hpp"
#include "kernels/autotune.hpp"
#include "norm_phase.hpp"
#include "obs/trace.hpp"
#include "serve/server.hpp"
#include "serve/workload.hpp"
#include "tensor/ops.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace serve = haan::serve;
namespace core = haan::core;

namespace {

constexpr std::size_t kMaxBatch = 8;

// prefill_batch: a round is two full packs per worker, served closed loop.
constexpr std::size_t kPrefillMinPrompt = 64;
constexpr std::size_t kPrefillMaxPrompt = 192;
constexpr std::size_t kRoundPacksPerWorker = 2;
constexpr std::size_t kVerifiedPerRound = 2;
constexpr std::size_t kTokenMatchPrompts = 8;

// decode_open: a closed-loop pass (every request due at its start) measures
// the seed's capacity on this mix; three open-loop steps then offer 30%, 50%
// and 65% of it (in open loop, packs are small and queueing already shows at
// the middle step). Request counts per second of the measured budget, which
// give about 3 s of closed loop and 2, 3 and 1 s of steps on a 4-CPU host.
// Latency metrics come from the middle step.
constexpr std::size_t kDecodeMinPrompt = 8;
constexpr std::size_t kDecodeMaxPrompt = 48;
constexpr std::size_t kDecodeMean = 16;
constexpr std::size_t kDecodeCap = 64;
constexpr double kCapacityRequests = 10.0;
// Capacity is measured in tokens (prompt + generated) per second, the unit of
// work, and offered in requests of the mix's mean size, so the sizes of the
// capacity pass's own requests do not move the offered rates.
constexpr double kMeanRequestTokens = (kDecodeMinPrompt + kDecodeMaxPrompt) / 2.0 + kDecodeMean;
constexpr double kStepLoad[] = {0.3, 0.5, 0.65};
constexpr double kStepRequests[] = {2.0, 5.0, 2.5};
constexpr std::size_t kSteps = 3;
constexpr std::size_t kMiddleStep = 2;  // list index: the capacity pass is list 0
constexpr std::size_t kTokenMatchRequests = 16;
// Prompt rows per prefill step: a long prompt is spread over several steps,
// so one prompt chunk delays the decode sessions sharing its step by a
// bounded amount.
constexpr std::size_t kPrefillChunk = 16;

// Goodput limits: a request is good when its TTFT and its time per output
// token stay within these (about 5x and 10x the middle step's medians on a
// 4-CPU host).
constexpr double kTtftLimitMs = 500.0;
constexpr double kTpotLimitMs = 100.0;
constexpr double kGoodShare = 0.95;

// Share of the measured time the normalizer phase gets on serve workloads,
// and the fixed replay groups of the traced pass (haan, exact).
constexpr double kNormPhaseShare = 0.1;
constexpr std::size_t kTraceReplayGroups = 16;
constexpr std::size_t kTraceExactGroups = 4;

std::uint64_t norm_seed(std::uint64_t seed) { return seed * 7919 + 17; }

serve::ServerConfig server_config(const Env& env, bool decode,
                                  std::size_t queue_capacity) {
  serve::ServerConfig config;
  config.model = haan::model::gpt2_117m_surrogate(128);
  config.norm = "haan";
  config.workers = env.workers;
  config.norm_threads = 1;
  // The feeder blocks on a full queue and latencies start at enqueue, so the
  // queue holds a whole round or rate step: a stall shows as latency.
  config.queue_capacity = queue_capacity;
  config.scheduler.max_batch = kMaxBatch;
  config.scheduler.policy.policy = serve::SchedPolicy::kFifo;
  config.mode = decode ? serve::ExecMode::kChunked : serve::ExecMode::kMegaBatch;
  config.prefill_chunk = decode ? kPrefillChunk : 0;
  config.numa = "auto";
  config.paced = decode;
  config.calibrate = true;
  return config;
}

/// Events the busiest thread records in a traced serve run: a decode step's
/// worker spans, or the calling thread's replay and calibration spans.
constexpr std::size_t kServeRingEvents = 150000;

/// Builds the server `reps` times (cold autotune each time) and keeps the
/// last. With `trace`, the constructions are traced into it.
std::unique_ptr<serve::Server> build_server(const serve::ServerConfig& config,
                                            std::size_t reps,
                                            std::vector<double>& setup_s,
                                            TraceSummary* trace) {
  if (trace != nullptr) {
    // A thread's ring keeps the capacity it was created with, so one capacity
    // serves the whole traced run.
    prepare_tracer(kServeRingEvents);
    haan::obs::tracer().set_enabled(true);
  }
  std::unique_ptr<serve::Server> server;
  for (std::size_t i = 0; i < reps; ++i) {
    server.reset();
    haan::kernels::reset_autotune_for_testing();
    const Clock::time_point start = Clock::now();
    {
      HAAN_TRACE_SPAN("Server()", "bench");
      server = std::make_unique<serve::Server>(config);
    }
    setup_s.push_back(seconds_since(start));
  }
  if (trace != nullptr) {
    haan::obs::tracer().set_enabled(false);
    trace->balanced &= drain_tracer(*trace);
  }
  return server;
}

/// One Server::run.
struct Run {
  serve::ServeReport report;
  double wall_s() const { return report.metrics.wall_us / 1e6; }
};

Run serve_run(serve::Server& server, const std::vector<serve::Request>& requests) {
  Run run;
  HAAN_TRACE_SPAN("Server::run", "bench", static_cast<std::uint32_t>(requests.size()));
  run.report = server.run(requests);
  return run;
}

/// Checks `subset` against Server::run_reference bit for bit (hidden-state
/// checksum and generated tokens), one request per task. Returns one flag per
/// request, true where the served output differs.
std::vector<bool> verify_subset(serve::Server& server,
                                const std::vector<serve::Request>& subset,
                                const std::vector<const serve::RequestResult*>& served,
                                std::size_t threads) {
  std::vector<char> mismatch(subset.size(), 0);
  parallel_for(subset.size(), threads, [&](std::size_t i) {
    serve::ServeReport reference;
    {
      HAAN_TRACE_SPAN("run_reference", "bench");
      reference = server.run_reference({subset[i]});
    }
    const serve::RequestResult& want = reference.results.front();
    const serve::RequestResult* got = served[i];
    mismatch[i] = got == nullptr || got->hidden_checksum != want.hidden_checksum ||
                  got->generated != want.generated;
  });
  return {mismatch.begin(), mismatch.end()};
}

std::size_t count_true(const std::vector<bool>& flags) {
  return static_cast<std::size_t>(std::count(flags.begin(), flags.end(), true));
}

const serve::RequestResult* find_result(const serve::ServeReport& report,
                                        std::uint64_t id) {
  const auto it = std::lower_bound(
      report.results.begin(), report.results.end(), id,
      [](const serve::RequestResult& r, std::uint64_t value) { return r.id < value; });
  return it != report.results.end() && it->id == id ? &*it : nullptr;
}

// --- Normalizer phase on the served model ------------------------------------

struct ServeNormPhase {
  NormInputs inputs;
  std::unique_ptr<haan::model::NormProvider> haan;
  std::unique_ptr<haan::model::NormProvider> exact;
  std::unique_ptr<Replayer> haan_replay;
  std::unique_ptr<Replayer> exact_replay;
  ReplayRun run;
  RelativeError rel_err;
};

/// Captures the served model's norm inputs (untimed) and builds a
/// worker-identical haan provider and an exact one to replay them through.
std::unique_ptr<ServeNormPhase> capture_norm_phase(const serve::Server& server,
                                                   std::uint64_t seed,
                                                   std::size_t threads) {
  auto phase = std::make_unique<ServeNormPhase>();
  haan::model::Transformer model(server.config().model);
  {
    const auto capture = server.make_provider();
    phase->inputs = capture_norm_inputs(
        model, *capture, seeded_prompt_sets(server.config().model.vocab_size, seed), threads);
  }
  phase->haan = server.make_provider();
  phase->exact = make_exact_provider();
  phase->haan_replay = std::make_unique<Replayer>(phase->inputs, *phase->haan,
                                                  kHaanLarge, kHaanSmall);
  phase->exact_replay = std::make_unique<Replayer>(phase->inputs, *phase->exact,
                                                   kExactLarge, kExactSmall);
  return phase;
}

/// Replays the haan provider for `budget_s` (or exactly `groups` groups) and
/// the exact provider for `exact_groups` groups, then measures the relative
/// error of haan against exact.
void replay_norm_phase(ServeNormPhase& phase, double budget_s, std::size_t groups,
                       std::size_t exact_groups) {
  phase.run = run_replay_groups(*phase.haan_replay, phase.inputs, budget_s, groups);
  if (exact_groups > 0) run_replay_groups(*phase.exact_replay, phase.inputs, 0.0, exact_groups);
  phase.rel_err = relative_error(*phase.haan_replay, *phase.exact_replay, phase.inputs);
}

void report_norm_phase_e2e(const ServeNormPhase& phase, Report& report) {
  report.attempted(phase.run.groups * (1 + phase.inputs.rows));
  if (phase.run.mismatches > 0) {
    report.fail("normalizer replay output differs from its first replay",
                phase.run.mismatches);
  }
}

void report_norm_metrics(const ServeNormPhase& phase, Report& report) {
  report.metric("norm_large_rows_s", phase.run.large_rows_per_s(phase.inputs), "rows/s",
                "served model's norm inputs, median 512-row replay");
  report.metric("norm_small_rows_s", phase.run.small_rows_per_s(phase.inputs), "rows/s",
                "median 8-row replay");
  report.info("norm rms rel err", std::to_string(phase.rel_err.rms));
  report.metric("norm_rel_err", phase.rel_err.row_p90, "ratio",
                "p90 over rows of |haan - exact| / |exact|");
}

/// Per-request latency samples of one run, in ms. A decoding request's TTFT
/// is RequestResult.ttft_us and its time per output token is (total - TTFT)
/// / (generated - 1). A prefill-only request's first token is ready when its
/// pack completes (TTFT = total latency), and its per-token sample is the
/// pack's forward time per packed row.
struct Latency {
  std::vector<double> ttft_ms;
  std::vector<double> tpot_ms;
};

/// Time per output token of a decoding request, in ms (0 below two tokens).
double tpot_ms(const serve::RequestResult& r) {
  return r.generated.size() < 2 ? 0.0
                                : (r.total_us - r.ttft_us) / 1e3 /
                                      static_cast<double>(r.generated.size() - 1);
}

Latency latency_samples(const serve::ServeReport& report) {
  std::map<std::uint64_t, std::size_t> pack_rows;
  for (const serve::RequestResult& r : report.results) pack_rows[r.batch] += r.prompt_len;
  Latency latency;
  for (const serve::RequestResult& r : report.results) {
    if (r.generated.empty()) {
      latency.ttft_ms.push_back(r.total_us / 1e3);
      latency.tpot_ms.push_back(r.compute_us / 1e3 / static_cast<double>(pack_rows[r.batch]));
    } else {
      latency.ttft_ms.push_back(r.ttft_us / 1e3);
      if (r.generated.size() >= 2) latency.tpot_ms.push_back(tpot_ms(r));
    }
  }
  return latency;
}

// --- Per-layer metrics of a traced serve pass --------------------------------

struct ServeLayerInput {
  std::vector<const Run*> runs;    ///< the traced Server::run calls
  const Run* latency_run = nullptr;  ///< run whose latencies and queue depths are reported
  const TraceSummary* trace = nullptr;
  double untraced_wall_s = 0.0;
  double traced_wall_s = 0.0;
  std::vector<double> lateness_ms;
};

void report_serve_layers(const ServeLayerInput& in, Report& report) {
  std::uint64_t packs = 0, packed_rows = 0, packed_seqs = 0, prefill_rows = 0,
                decode_rows = 0, mixed = 0, shed = 0, degraded = 0;
  std::size_t kv_max = 0;
  std::uint64_t isd_computed = 0, isd_predicted = 0, elements_read = 0;
  std::size_t arena_bytes = 0;
  std::uint64_t arena_allocs = 0, arena_slabs = 0;
  for (const Run* run : in.runs) {
    const serve::ServeMetrics& m = run->report.metrics;
    packs += m.packed_forwards;
    packed_rows += m.packed_rows;
    packed_seqs += m.packed_sequences;
    prefill_rows += m.prefill_rows;
    decode_rows += m.decode_rows;
    mixed += m.mixed_packs;
    shed += m.shed_requests;
    degraded += m.degraded_requests;
    kv_max = std::max(kv_max, m.max_kv_bytes);
    isd_computed += m.norm.isd_computed;
    isd_predicted += m.norm.isd_predicted;
    elements_read += m.norm.elements_read;
    arena_bytes = std::max(arena_bytes, m.mem.arena_bytes);
    arena_allocs += m.mem.arena_allocations;
    arena_slabs += m.mem.arena_slab_allocations;
  }
  std::vector<double> queue_ms;
  for (const serve::RequestResult& r : in.latency_run->report.results) {
    queue_ms.push_back(r.queue_us / 1e3);
  }
  const Tail queue_tail = tail_of(queue_ms);
  const Latency latency = latency_samples(in.latency_run->report);
  const Tail ttft_tail = tail_of(latency.ttft_ms);
  const Tail tpot_tail = tail_of(latency.tpot_ms);
  report.metric("serve.ttft_p50_ms", median(latency.ttft_ms), "ms");
  report.metric("serve.ttft_tail_ms", ttft_tail.value, "ms", tail_note(ttft_tail));
  report.metric("serve.tpot_p50_ms", median(latency.tpot_ms), "ms",
                "decode: (total - TTFT)/(generated - 1); prefill-only: pack time per row");
  report.metric("serve.tpot_tail_ms", tpot_tail.value, "ms", tail_note(tpot_tail));
  report.metric("serve.queue_wait_p50_ms", median(queue_ms), "ms");
  report.metric("serve.queue_wait_tail_ms", queue_tail.value, "ms", tail_note(queue_tail));
  report.metric("serve.packs", static_cast<double>(packs), "count");
  report.metric("serve.pack_rows_mean", packs ? double(packed_rows) / packs : 0.0, "rows");
  report.metric("serve.pack_occupancy",
                packs ? double(packed_seqs) / (double(packs) * kMaxBatch) : 0.0, "ratio");
  const serve::ServeMetrics& latency_metrics = in.latency_run->report.metrics;
  report.metric("serve.queue_depth_mean", latency_metrics.mean_queue_depth, "count");
  report.metric("serve.queue_depth_max", static_cast<double>(latency_metrics.max_queue_depth),
                "count");
  report.metric("serve.prefill_rows", static_cast<double>(prefill_rows), "rows");
  report.metric("serve.decode_rows", static_cast<double>(decode_rows), "rows");
  report.metric("serve.mixed_packs", static_cast<double>(mixed), "count");
  report.metric("serve.itl_p99_ms", latency_metrics.intertoken.p99_us / 1e3,
                "ms", "per-gap inter-token latency");
  const TraceSummary& t = *in.trace;
  report.metric("serve.form_ms",
                (t.get("pack-form").self_us + t.get("batch-form").self_us) / 1e3, "ms",
                "self time of pack-form/batch-form spans");
  report.metric("serve.shed", static_cast<double>(shed), "count");
  report.metric("serve.degraded", static_cast<double>(degraded), "count");
  const Tail late = tail_of(in.lateness_ms);
  report.metric("serve.gen_lateness_tail_ms", late.value, "ms",
                "enqueue-span start - due time, " + tail_note(late));
  report.metric("serve.gen_lateness_max_ms", percentile(in.lateness_ms, 100.0), "ms");

  const SpanStats& forward = t.get("forward");
  const SpanStats norm = t.sum_prefix("norm/");
  const double forward_ms = forward.total_us / 1e3;
  const auto share = [&](double us) { return forward.total_us > 0 ? us / forward.total_us : 0.0; };
  report.metric("model.forward_ms", forward_ms, "ms", "Σ forward spans");
  report.metric("model.forward_p50_ms", median(t.forward_us) / 1e3, "ms", "per pack");
  report.metric("model.attn_ms", t.get("attn").total_us / 1e3, "ms");
  report.metric("model.mlp_ms", t.get("mlp").total_us / 1e3, "ms");
  report.metric("model.embed_ms", t.get("embed").total_us / 1e3, "ms");
  report.metric("model.norm_ms", norm.total_us / 1e3, "ms");
  report.metric("model.attn_share", share(t.get("attn").total_us), "ratio", "of forward");
  report.metric("model.mlp_share", share(t.get("mlp").total_us), "ratio", "of forward");
  report.metric("model.norm_share", share(norm.total_us), "ratio", "of forward");
  report.metric("model.rows_per_norm_call", norm.count ? norm.sum_b / norm.count : 0.0, "rows");
  report.metric("model.kv_bytes_max", static_cast<double>(kv_max), "bytes");

  report.metric("core.isd_computed", static_cast<double>(isd_computed), "count");
  report.metric("core.isd_predicted", static_cast<double>(isd_predicted), "count");
  report.metric("core.elements_read", static_cast<double>(elements_read), "count");

  report.metric("mem.arena_bytes", static_cast<double>(arena_bytes), "bytes",
                "largest per run");
  report.metric("mem.arena_reuse_ratio",
                arena_allocs ? 1.0 - double(arena_slabs) / double(arena_allocs) : 0.0,
                "ratio");
  report.metric("obs.trace_overhead", in.traced_wall_s / in.untraced_wall_s, "ratio",
                "traced / untraced wall of the closed-loop runs, identical inputs");
  report.metric("obs.trace_events", static_cast<double>(t.raw_events), "count");
  report.metric("obs.forward_child_share",
                forward.total_us > 0 ? forward.children_us / forward.total_us : 0.0,
                "ratio", "Σ child spans / Σ forward spans");

  // Self-check of the traced pass, chunked execution included.
  report.check(t.balanced, "trace balanced, nothing dropped");
  report.check(forward.count == packs,
               "forward spans (" + std::to_string(forward.count) +
                   ") == ServeMetrics.packed_forwards (" + std::to_string(packs) + ")");
  report.check(forward.total_us > 0 && forward.children_us >= 0.95 * forward.total_us,
               "child spans cover >= 95% of forward spans");
}

/// Generator lateness of one traced run: each request's enqueue-span start
/// minus its due time. The run's start is not observable from outside
/// Server::run, so due times are anchored on the least-late request.
void collect_lateness(TraceSummary& trace, const std::vector<serve::Request>& requests,
                      std::vector<double>& lateness_ms) {
  std::vector<double> offset_us;
  for (const auto& [id, start_us] : trace.enqueue_start_us) {
    if (id < requests.size()) offset_us.push_back(start_us - requests[id].arrival_us);
  }
  trace.enqueue_start_us.clear();
  if (offset_us.empty()) return;
  const double base = *std::min_element(offset_us.begin(), offset_us.end());
  for (double offset : offset_us) lateness_ms.push_back((offset - base) / 1e3);
}

/// Completion accounting of served lists plus the verified subset (`pick`
/// chooses its members from each list), checked against run_reference.
struct Verified {
  std::vector<serve::Request> subset;
  std::vector<std::size_t> list;  ///< list index of each subset member
  std::vector<bool> mismatch;     ///< per subset member
};

using Pick = std::function<std::vector<serve::Request>(const std::vector<serve::Request>&)>;

Verified verify_runs(serve::Server& server,
                     const std::vector<std::vector<serve::Request>>& lists,
                     const std::vector<Run>& runs, const Pick& pick, std::size_t threads,
                     Report& report) {
  Verified verified;
  std::vector<const serve::RequestResult*> served;
  for (std::size_t k = 0; k < lists.size(); ++k) {
    report.attempted(lists[k].size());
    const std::size_t missing = lists[k].size() - runs[k].report.metrics.completed;
    if (missing > 0) report.fail("requests not completed", missing);
    for (serve::Request& r : pick(lists[k])) {
      served.push_back(find_result(runs[k].report, r.id));
      verified.subset.push_back(std::move(r));
      verified.list.push_back(k);
    }
  }
  verified.mismatch = verify_subset(server, verified.subset, served, threads);
  const std::size_t mismatches = count_true(verified.mismatch);
  if (mismatches > 0) report.fail("served outputs differ from run_reference", mismatches);
  return verified;
}

/// Traced run of a serve workload. The untraced pass has run; this replays
/// its request lists with tracing on, checks the traced outputs against
/// run_reference, then times the layers the benchmark calls itself
/// (tensor::linear, the normalizer replay, calibration, cold autotune).
/// `bench_trace` already holds the traced server constructions.
void run_traced_serve(const char* workload, serve::Server& server,
                      const Options& options, const Env& env,
                      const std::vector<std::vector<serve::Request>>& lists,
                      const std::vector<Run>& untraced, const Pick& pick,
                      std::size_t latency_index, TraceSummary& bench_trace,
                      Report& report) {
  // Trace overhead over the closed-loop runs: a paced run's wall is set by
  // its arrival schedule.
  const auto closed_loop_wall = [&](const std::vector<Run>& runs) {
    double wall = 0.0;
    for (std::size_t k = 0; k < lists.size(); ++k) {
      if (lists[k].back().arrival_us == 0.0) wall += runs[k].wall_s();
    }
    return wall;
  };
  const double untraced_wall = closed_loop_wall(untraced);
  const auto phase = capture_norm_phase(server, norm_seed(options.seed), env.workers);
  TraceSummary serve_trace;
  std::vector<Run> traced;
  std::vector<double> lateness_ms;
  bool complete = true;
  haan::obs::tracer().set_enabled(true);
  for (std::size_t k = 0; k < lists.size(); ++k) {
    traced.push_back(serve_run(server, lists[k]));
    const std::string path = options.out_dir.empty()
                                 ? std::string{}
                                 : options.out_dir + "/" + workload + "-" +
                                       std::to_string(options.seed) + "-run" +
                                       std::to_string(k) + ".json";
    complete &= drain_tracer(serve_trace, path);
    collect_lateness(serve_trace, lists[k], lateness_ms);
  }
  haan::obs::tracer().set_enabled(false);
  serve_trace.balanced &= complete;

  const double traced_wall = closed_loop_wall(traced);

  ServeLayerInput layer_input;
  for (const Run& run : traced) layer_input.runs.push_back(&run);
  layer_input.latency_run = &traced[latency_index];
  layer_input.trace = &serve_trace;
  layer_input.untraced_wall_s = untraced_wall;
  layer_input.traced_wall_s = traced_wall;
  layer_input.lateness_ms = lateness_ms;
  report_serve_layers(layer_input, report);
  report_layer_table(serve_trace, "serve", report);

  haan::obs::tracer().set_enabled(true);
  verify_runs(server, lists, traced, pick, env.workers, report);
  replay_norm_phase(*phase, 0.0, kTraceReplayGroups, kTraceExactGroups);
  report_standalone_layers(server.model(), report);
  haan::obs::tracer().set_enabled(false);
  bench_trace.balanced &= drain_tracer(bench_trace);
  report.check(bench_trace.balanced, "benchmark-side trace balanced, nothing dropped");
  report_norm_phase_e2e(*phase, report);
  const core::HaanNormProvider* haan = core::as_haan_provider(phase->haan.get());
  report_norm_layer_metrics(bench_trace, server.plan(),
                            static_cast<double>(haan->counters().elements_read), report);
  report_layer_table(bench_trace, "bench", report);
}

// --- Workload inputs ----------------------------------------------------------

/// The `n` shortest prompts of `requests`, shortest first.
std::vector<serve::Request> shortest(std::vector<serve::Request> requests, std::size_t n) {
  std::stable_sort(requests.begin(), requests.end(), [](const auto& a, const auto& b) {
    return a.tokens.size() < b.tokens.size();
  });
  requests.resize(std::min(requests.size(), n));
  return requests;
}

/// One closed-loop round. Every request is due when the round starts.
std::vector<serve::Request> prefill_round(std::uint64_t seed, std::size_t round,
                                          std::size_t n, std::size_t vocab) {
  serve::WorkloadConfig config;
  config.n_requests = n;
  config.length_model = serve::LengthModel::kUniform;
  config.min_prompt = kPrefillMinPrompt;
  config.max_prompt = kPrefillMaxPrompt;
  config.vocab_size = vocab;
  config.seed = seed * 1000 + round;
  std::vector<serve::Request> requests = serve::generate_workload(config);
  for (serve::Request& r : requests) r.arrival_us = 0.0;
  return requests;
}

/// One list of decode requests. Arrivals are Poisson, rescaled so that the
/// list's realized rate is exactly `rate` (the last arrival lands at
/// (n-1)/rate); rate 0 makes every request due at the start (closed loop).
std::vector<serve::Request> decode_requests(std::uint64_t seed, std::size_t list,
                                            double rate, std::size_t n, std::size_t vocab) {
  serve::WorkloadConfig config;
  config.n_requests = n;
  config.length_model = serve::LengthModel::kUniform;
  config.min_prompt = kDecodeMinPrompt;
  config.max_prompt = kDecodeMaxPrompt;
  config.decode_model = serve::DecodeModel::kGeometric;
  config.decode_tokens = kDecodeMean;
  config.max_decode = kDecodeCap;
  config.vocab_size = vocab;
  config.seed = seed * 1000 + list;
  std::vector<serve::Request> requests = serve::generate_workload(config);
  const double last = requests.back().arrival_us;
  const double scale =
      rate > 0.0 && n > 1 && last > 0.0 ? (static_cast<double>(n - 1) / rate * 1e6) / last : 0.0;
  for (serve::Request& r : requests) r.arrival_us *= scale;
  return requests;
}

std::size_t prompt_tokens(const serve::ServeReport& report) {
  std::size_t tokens = 0;
  for (const serve::RequestResult& r : report.results) tokens += r.prompt_len;
  return tokens;
}

void report_common_e2e(const std::vector<double>& setup_s, Report& report) {
  report.metric("setup_s", median(setup_s), "s",
                "median of " + std::to_string(setup_s.size()) + " server constructions");
  report.metric("peak_rss_mb", peak_rss_mb(), "MB");
  report.metric("success_frac",
                1.0 - static_cast<double>(report.failed_count()) /
                          static_cast<double>(report.attempted_count()),
                "ratio", "1 - failed/attempted");
}

}  // namespace

// =============================================================================
// prefill_batch
// =============================================================================

void run_prefill_batch(const Options& options, const Env& env, Report& report) {
  const std::size_t round_size = kRoundPacksPerWorker * env.workers * kMaxBatch;
  const serve::ServerConfig config = server_config(env, false, round_size);
  std::vector<double> setup_s;
  TraceSummary bench_trace;
  std::unique_ptr<serve::Server> server = build_server(
      config, options.trace ? 1 : kSetupReps, setup_s, options.trace ? &bench_trace : nullptr);
  report_provenance(options, env, config.model, report);
  report.info("skip plan", server->plan().to_string());

  // Closed-loop rounds until the budget is spent; each round is one
  // Server::run whose whole request list fits the queue at once. Another
  // round starts only while more than half of a mean round's time is left.
  const double budget = options.seconds * (1.0 - kNormPhaseShare) / (options.trace ? 2.0 : 1.0);
  std::vector<std::vector<serve::Request>> rounds;
  std::vector<Run> runs;
  const Clock::time_point start = Clock::now();
  while (rounds.empty() ||
         seconds_since(start) + 0.5 * seconds_since(start) / rounds.size() < budget) {
    rounds.push_back(prefill_round(options.seed, rounds.size(), round_size,
                                   config.model.vocab_size));
    runs.push_back(serve_run(*server, rounds.back()));
  }

  // Verified subset: the kVerifiedPerRound shortest prompts of every round.
  const Pick pick = [](const std::vector<serve::Request>& round) {
    return shortest(round, kVerifiedPerRound);
  };
  if (options.trace) {
    run_traced_serve("prefill_batch", *server, options, env, rounds, runs, pick, 0,
                     bench_trace, report);
    return;
  }
  const Verified verified = verify_runs(*server, rounds, runs, pick, env.workers, report);

  const auto phase = capture_norm_phase(*server, norm_seed(options.seed), env.workers);
  replay_norm_phase(*phase, options.seconds * kNormPhaseShare, 0, 0);
  report_norm_phase_e2e(*phase, report);

  // Token match: greedy next token at every position of the shortest prompts
  // of the first round (a set that depends only on the seed), the served
  // haan provider against exact.
  const std::vector<serve::Request> subset = shortest(rounds.front(), kTokenMatchPrompts);
  std::vector<std::size_t> equal(subset.size(), 0);
  parallel_for(subset.size(), env.workers, [&](std::size_t i) {
    const auto haan = server->make_provider();
    const auto exact = make_exact_provider();
    const haan::tensor::Tensor a = server->model().forward_hidden(subset[i].tokens, *haan);
    const haan::tensor::Tensor b = server->model().forward_hidden(subset[i].tokens, *exact);
    equal[i] = greedy_token_matches(server->model(), {a.data().begin(), a.data().end()},
                                    {b.data().begin(), b.data().end()});
  });
  std::size_t matched = 0;
  std::size_t positions = 0;
  for (std::size_t i = 0; i < subset.size(); ++i) {
    matched += equal[i];
    positions += subset[i].tokens.size();
  }

  double wall_s = 0.0;
  std::size_t tokens = 0;
  std::size_t good = 0;
  for (const Run& run : runs) {
    wall_s += run.wall_s();
    tokens += prompt_tokens(run.report);
    for (const serve::RequestResult& r : run.report.results) good += r.shed ? 0 : 1;
  }
  good -= std::min(good, count_true(verified.mismatch));

  std::string round_walls;
  for (const Run& run : runs) round_walls += " " + std::to_string(run.wall_s());
  report.info("rounds", std::to_string(runs.size()) + " x " + std::to_string(round_size) +
                            " requests, verified " + std::to_string(verified.subset.size()) +
                            ", walls (s):" + round_walls);
  report_common_e2e(setup_s, report);
  report.metric("prefill_tok_s", tokens / wall_s, "tokens/s", "prompt tokens / served wall");
  report.metric("goodput_rps", good / wall_s, "req/s", "closed loop: correct completions/s");
  report.metric("token_match_exact", positions ? double(matched) / positions : 0.0, "ratio",
                std::to_string(positions) + " positions, teacher-forced greedy");
  report_norm_metrics(*phase, report);
}

// =============================================================================
// decode_open
// =============================================================================

void run_decode_open(const Options& options, const Env& env, Report& report) {
  const double budget = options.seconds * (1.0 - kNormPhaseShare) / (options.trace ? 2.0 : 1.0);
  const auto count = [&](double per_second, std::size_t floor) {
    return std::max(floor, static_cast<std::size_t>(std::lround(per_second * budget)));
  };
  const std::size_t capacity_n = count(kCapacityRequests, 4 * kMaxBatch);
  const serve::ServerConfig config = server_config(env, true, capacity_n);
  std::vector<double> setup_s;
  TraceSummary bench_trace;
  std::unique_ptr<serve::Server> server = build_server(
      config, options.trace ? 1 : kSetupReps, setup_s, options.trace ? &bench_trace : nullptr);
  report_provenance(options, env, config.model, report);
  report.info("skip plan", server->plan().to_string());

  // List 0 is the closed-loop capacity pass; lists 1..3 are the open-loop
  // steps, offered at fixed shares of the capacity it measured.
  const std::size_t vocab = config.model.vocab_size;
  std::vector<std::vector<serve::Request>> lists{
      decode_requests(options.seed, 0, 0.0, capacity_n, vocab)};
  std::vector<Run> runs{serve_run(*server, lists[0])};
  std::size_t capacity_tokens = 0;
  for (const serve::RequestResult& r : runs[0].report.results) {
    capacity_tokens += r.prompt_len + r.generated.size();
  }
  const double capacity_rps =
      static_cast<double>(capacity_tokens) / runs[0].wall_s() / kMeanRequestTokens;
  std::vector<double> rates;
  for (std::size_t k = 0; k < kSteps; ++k) {
    rates.push_back(kStepLoad[k] * capacity_rps);
    lists.push_back(decode_requests(options.seed, k + 1, rates.back(),
                                    std::min(capacity_n, count(kStepRequests[k], 16)), vocab));
    runs.push_back(serve_run(*server, lists.back()));
  }

  // Verified subset: per list, the cheapest of the first 16 requests for the
  // O(n^2) re-forward oracle.
  const Pick pick = [](const std::vector<serve::Request>& list) {
    const auto cost = [](const serve::Request& r) { return r.tokens.size() + r.max_new_tokens; };
    const auto end = list.begin() + std::min<std::ptrdiff_t>(16, list.size());
    return std::vector<serve::Request>{*std::min_element(
        list.begin(), end, [&](const auto& a, const auto& b) { return cost(a) < cost(b); })};
  };
  if (options.trace) {
    run_traced_serve("decode_open", *server, options, env, lists, runs, pick, kMiddleStep,
                     bench_trace, report);
    return;
  }
  const Verified verified = verify_runs(*server, lists, runs, pick, env.workers, report);

  const auto phase = capture_norm_phase(*server, norm_seed(options.seed), env.workers);
  replay_norm_phase(*phase, options.seconds * kNormPhaseShare, 0, 0);
  report_norm_phase_e2e(*phase, report);

  // Token match: for the first requests of the capacity pass, the exact
  // provider's greedy token at every generated position, given the context
  // the served request had (its prompt and earlier generated tokens).
  std::vector<const serve::RequestResult*> match_set;
  for (const serve::RequestResult& r : runs[0].report.results) {
    if (match_set.size() == kTokenMatchRequests) break;
    if (!r.generated.empty()) match_set.push_back(&r);
  }
  std::vector<std::size_t> equal(match_set.size(), 0);
  std::size_t compared = 0;
  for (const auto* r : match_set) compared += r->generated.size();
  parallel_for(match_set.size(), env.workers, [&](std::size_t i) {
    const serve::RequestResult& r = *match_set[i];
    const serve::Request& request = lists[0][r.id];
    std::vector<int> fed = request.tokens;
    fed.insert(fed.end(), r.generated.begin(), r.generated.end() - 1);
    const auto exact = make_exact_provider();
    const haan::tensor::Tensor hidden = server->model().forward_hidden(fed, *exact);
    for (std::size_t g = 0; g < r.generated.size(); ++g) {
      const auto logits =
          server->model().logits_for_hidden_row(hidden.row(request.tokens.size() - 1 + g));
      equal[i] += static_cast<int>(haan::tensor::argmax(logits)) == r.generated[g];
    }
  });
  std::size_t matched = 0;
  for (std::size_t e : equal) matched += e;

  // Goodput: requests of the steps that meet both limits (a request that
  // failed verification does not) per second offered (n / rate per step).
  // The offered rates are shares of the measured capacity, so goodput
  // follows the service time of the whole serving path, and falls further
  // when requests miss the limits. Whether each step keeps >= 95% of its
  // requests within the limits without a growing backlog (the last quarter's
  // median TTFT within the limit) is printed per step.
  std::size_t good_total = 0;
  double span_s = 0.0;
  for (std::size_t k = 1; k <= kSteps; ++k) {
    const serve::ServeReport& rep = runs[k].report;
    span_s += static_cast<double>(lists[k].size()) / rates[k - 1];
    std::size_t good = 0;
    std::vector<double> last_quarter;
    for (const serve::RequestResult& r : rep.results) {
      const double ttft = r.ttft_us / 1e3;
      good += !r.shed && ttft <= kTtftLimitMs && tpot_ms(r) <= kTpotLimitMs;
      if (r.id >= lists[k].size() * 3 / 4) last_quarter.push_back(ttft);
    }
    for (std::size_t i = 0; i < verified.subset.size(); ++i) {
      if (verified.list[i] == k && verified.mismatch[i]) good -= std::min<std::size_t>(good, 1);
    }
    good_total += good;
    const bool backlog = median(last_quarter) > kTtftLimitMs;
    const bool pass = good >= kGoodShare * lists[k].size() && !backlog;
    char line[160];
    std::snprintf(line, sizeof(line), "%.1f req/s x %zu: %zu good, wall %.3f s, %s",
                  rates[k - 1], lists[k].size(), good, runs[k].wall_s(),
                  pass ? "meets 95%" : backlog ? "backlog grows" : "below 95%");
    report.info("step " + std::to_string(k), line);
  }

  const Latency middle_latency = latency_samples(runs[kMiddleStep].report);
  report.info("capacity", std::to_string(capacity_rps) + " req/s of " +
                              std::to_string(kMeanRequestTokens) + " tokens, closed loop, " +
                              std::to_string(capacity_n) + " requests");
  report.info("middle step", "TTFT p50 " + std::to_string(median(middle_latency.ttft_ms)) +
                                 " ms, time per output token p50 " +
                                 std::to_string(median(middle_latency.tpot_ms)) + " ms");
  report_common_e2e(setup_s, report);
  report.metric("prefill_tok_s", prompt_tokens(runs[0].report) / runs[0].wall_s(), "tokens/s",
                "closed-loop capacity pass, served wall");
  report.metric("goodput_rps", good_total / span_s, "req/s",
                "step requests within both limits / offered seconds");
  report.metric("token_match_exact", compared ? double(matched) / compared : 0.0, "ratio",
                std::to_string(compared) + " generated tokens");
  report_norm_metrics(*phase, report);
}

}  // namespace perfbench
