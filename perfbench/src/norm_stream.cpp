// norm_stream: the llama7b surrogate at width 128 (32 blocks, RMSNorm, 64
// norm layers; the paper's Fig 2 model). Setup builds the model, autotunes
// the kernels, runs Algorithm 1 calibration and constructs the haan
// provider. Its norm-layer inputs are captured from one packed haan forward
// of eight seeded 64-token prompts, then streamed layer by layer through one
// haan provider's normalize_rows on one thread: a 512-row prefill-shaped
// block, then the 64 decode-shaped 8-row blocks (one row of each sequence).
// The core HAAN provider and the kernels do all of the timed work.
#include <memory>

#include "core/calibration.hpp"
#include "core/provider_factory.hpp"
#include "kernels/autotune.hpp"
#include "norm_phase.hpp"
#include "obs/trace.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace core = haan::core;

namespace {

/// Replay groups of each pass of a traced run.
constexpr std::size_t kTraceGroups = 48;

struct NormSetup {
  std::unique_ptr<model::Transformer> model;
  core::ProviderOptions provider_options;
  std::unique_ptr<model::NormProvider> provider;
};

/// Model build, cold autotune, Algorithm 1 calibration (the server's default
/// options) and provider construction; `reps` times, keeping the last.
NormSetup build_norm_setup(const model::ModelConfig& config, std::size_t reps,
                           std::vector<double>& setup_s) {
  NormSetup setup;
  for (std::size_t i = 0; i < reps; ++i) {
    setup = {};
    haan::kernels::reset_autotune_for_testing();
    const Clock::time_point start = Clock::now();
    setup.model = std::make_unique<model::Transformer>(config);
    haan::kernels::tuned_for(config.d_model);
    const core::CalibrationResult calibration =
        core::calibrate_skip_plan(*setup.model, core::CalibrationOptions{});
    setup.provider_options.width = config.d_model;
    setup.provider_options.plan = calibration.plan;
    setup.provider_options.model_name = config.name;
    setup.provider_options.norm_threads = 1;
    setup.provider = core::make_norm_provider("haan", setup.provider_options);
    setup_s.push_back(seconds_since(start));
  }
  return setup;
}

}  // namespace

void run_norm_stream(const Options& options, const Env& env, Report& report) {
  const model::ModelConfig config = model::llama7b_surrogate(128);
  std::vector<double> setup_s;
  NormSetup setup = build_norm_setup(config, options.trace ? 1 : kNormStreamSetupReps, setup_s);
  report_provenance(options, env, config, report);
  const core::SkipPlan plan = setup.provider_options.plan;
  report.info("skip plan", plan.to_string());

  // Inputs: norm-layer inputs of haan forwards of the seeded prompts.
  const auto prompt_sets = seeded_prompt_sets(config.vocab_size, options.seed);
  NormInputs inputs;
  {
    const auto capture = core::make_norm_provider("haan", setup.provider_options);
    inputs = capture_norm_inputs(*setup.model, *capture, prompt_sets, env.workers);
  }
  const auto exact = make_exact_provider();
  Replayer haan_replay(inputs, *setup.provider, kHaanLarge, kHaanSmall);
  Replayer exact_replay(inputs, *exact, kExactLarge, kExactSmall);
  auto* counters = dynamic_cast<core::HaanNormProvider*>(setup.provider.get());

  if (options.trace) {
    // Untraced pass, then the same groups traced. Fixed counts bound the
    // spans the calling thread's ring must hold.
    const std::size_t groups = kTraceGroups;
    const std::size_t exact_groups = kTraceGroups / 4;
    const ReplayRun untraced = run_replay_groups(haan_replay, inputs, 0.0, groups);
    prepare_tracer((groups + exact_groups) * inputs.layers * (inputs.rows + 1) * 2 + 65536);
    counters->reset_counters();
    TraceSummary trace;
    haan::obs::tracer().set_enabled(true);
    const ReplayRun traced = run_replay_groups(haan_replay, inputs, 0.0, groups);
    run_replay_groups(exact_replay, inputs, 0.0, exact_groups);
    report_standalone_layers(*setup.model, report);
    haan::obs::tracer().set_enabled(false);
    trace.balanced &= drain_tracer(
        trace, options.out_dir.empty()
                   ? std::string{}
                   : options.out_dir + "/norm_stream-" + std::to_string(options.seed) + ".json");

    report.attempted(2 * groups * (1 + inputs.rows));
    const std::uint64_t mismatches = untraced.mismatches + traced.mismatches;
    if (mismatches > 0) report.fail("replay output differs from its first replay", mismatches);
    const double untraced_s = untraced.large_total_s + untraced.small_total_s;
    const double traced_s = traced.large_total_s + traced.small_total_s;
    report.metric("core.isd_computed", static_cast<double>(counters->counters().isd_computed),
                  "count", "traced replays");
    report.metric("core.isd_predicted",
                  static_cast<double>(counters->counters().isd_predicted), "count");
    report.metric("core.elements_read",
                  static_cast<double>(counters->counters().elements_read), "count");
    report_norm_layer_metrics(trace, plan,
                              static_cast<double>(counters->counters().elements_read), report);
    report.metric("obs.trace_overhead", traced_s / untraced_s, "ratio",
                  "traced / untraced replay wall, identical groups");
    report.metric("obs.trace_events", static_cast<double>(trace.raw_events), "count");
    report_layer_table(trace, "bench", report);

    const std::uint64_t expected = groups * inputs.layers * (1 + inputs.rows);
    const std::uint64_t haan_spans = trace.get(kHaanLarge).count + trace.get(kHaanSmall).count;
    report.check(trace.balanced, "trace balanced, nothing dropped");
    report.check(haan_spans == expected,
                 "haan normalize_rows spans (" + std::to_string(haan_spans) +
                     ") == calls made (" + std::to_string(expected) + ")");
    return;
  }

  // Token match: greedy next token at every position of the seeded prompts,
  // the capture's haan forward against an exact forward.
  std::vector<float> haan_hidden, exact_hidden;
  for (std::size_t set = 0; set < kNormSets; ++set) {
    const NormSet& captured = inputs.sets[set];
    haan_hidden.insert(haan_hidden.end(), captured.final_hidden.begin(),
                       captured.final_hidden.end());
    const std::vector<float> reference =
        packed_final_hidden(*setup.model, *exact, prompt_sets[set], env.workers);
    exact_hidden.insert(exact_hidden.end(), reference.begin(), reference.end());
  }
  const std::size_t positions = haan_hidden.size() / config.d_model;
  const double token_match =
      static_cast<double>(greedy_token_matches(*setup.model, haan_hidden, exact_hidden)) /
      static_cast<double>(positions);

  const ReplayRun run = run_replay_groups(haan_replay, inputs, options.seconds);
  const RelativeError rel_err = relative_error(haan_replay, exact_replay, inputs);
  report.attempted(run.groups * (1 + inputs.rows));
  if (run.mismatches > 0) {
    report.fail("replay output differs from its first replay", run.mismatches);
  }
  report.info("replay", std::to_string(run.groups) + " groups, first-group checksum " +
                            std::to_string(run.checksum));

  report.metric("setup_s", median(setup_s), "s",
                "median of " + std::to_string(setup_s.size()) + " setups");
  report.metric("peak_rss_mb", peak_rss_mb(), "MB");
  report.metric("success_frac",
                1.0 - static_cast<double>(report.failed_count()) /
                          static_cast<double>(report.attempted_count()),
                "ratio", "1 - failed/attempted");
  // The serving vocabulary applied to the normalizer alone: a group serves
  // eight 64-token requests, their prefill (the large block) and then 64
  // decode steps (the small blocks).
  report.metric("prefill_tok_s",
                static_cast<double>(inputs.seqs * inputs.rows) / median(run.large_s),
                "tokens/s", "prompt tokens through every norm layer, median large block");
  report.metric("goodput_rps", static_cast<double>(inputs.seqs) / median(run.group_s),
                "req/s", "sequences (prefill + 64 decode steps) per second, median group");
  report.metric("token_match_exact", token_match, "ratio",
                std::to_string(positions) + " positions, teacher-forced greedy");
  report.metric("norm_large_rows_s", run.large_rows_per_s(inputs), "rows/s",
                "median large replay");
  report.metric("norm_small_rows_s", run.small_rows_per_s(inputs), "rows/s",
                "median small replay");
  report.info("norm rms rel err", std::to_string(rel_err.rms));
  report.metric("norm_rel_err", rel_err.row_p90, "ratio",
                "p90 over rows of |haan - exact| / |exact|");
}

}  // namespace perfbench
