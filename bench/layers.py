"""Per-layer metrics of a traced run, from the tracer's spans and counters.

Times are busy (inclusive) seconds and counts are exact; both are per
traced pass, so a run that fits in more passes reports the same values.
``autodiff.graph_nodes`` and ``autodiff.graph_mb`` are per backward call
(one per training step). ``synthdata.generate_corpus.s`` is the median over
the set-up processes.
"""

from __future__ import annotations

import statistics

CONV_LAYERS = [f"b{b}c{c}" for b in range(1, 5) for c in (1, 2)]
MB = 2 ** 20

# (name, unit, better) in the order BENCHMARK.json lists them.
PER_LAYER = (
    [(f"autodiff.conv2d_same.{layer}.{d}_s", "s", "lower")
     for layer in CONV_LAYERS for d in ("fwd", "bwd")]
    + [
        ("autodiff.conv2d_same.share", "ratio", "lower"),
        ("autodiff.maxpool2x2.fwd_s", "s", "lower"),
        ("autodiff.maxpool2x2.bwd_s", "s", "lower"),
        ("autodiff.backward.s", "s", "lower"),
        ("autodiff.backward.other_s", "s", "lower"),
        ("autodiff.graph_nodes", "count", "lower"),
        ("autodiff.graph_mb", "MB", "lower"),
        ("encoder.encode.calls", "count", "lower"),
        ("encoder.encode.frames", "frames", "lower"),
        ("encoder.encode.s", "s", "lower"),
        ("features.utterance_features.calls", "count", "lower"),
        ("features.utterance_features.s", "s", "lower"),
        ("pooling.pool.calls", "count", "lower"),
        ("pooling.pool.s", "s", "lower"),
        ("head.head_forward.s", "s", "lower"),
        ("head.am_softmax_loss.s", "s", "lower"),
        ("trainer.steps", "count", "higher"),
        ("trainer.adam_step.s", "s", "lower"),
        ("trainer.sample_chunk.s", "s", "lower"),
        ("trainer.data_wait_s", "s", "lower"),
        ("trainer.save_checkpoint.calls", "count", "lower"),
        ("trainer.save_checkpoint.s", "s", "lower"),
        ("trainer.checkpoint_bytes", "bytes", "lower"),
        ("trainer.load_model.s", "s", "lower"),
        ("model.write_embeddings.s", "s", "lower"),
        ("model.read_embeddings.s", "s", "lower"),
        ("metrics.read_trials.s", "s", "lower"),
        ("metrics.score_trials.s", "s", "lower"),
        ("metrics.cosine_score.calls", "count", "lower"),
        ("metrics.compute_eer.s", "s", "lower"),
        ("metrics.compute_min_dcf.s", "s", "lower"),
        ("metrics.write_scores.s", "s", "lower"),
        ("synthdata.generate_corpus.s", "s", "lower"),
        ("trace.pass_s", "s", "lower"),
        ("trace.overhead_frac", "ratio", "lower"),
    ]
)


def per_layer_metrics(tracer, passes, setup_busy) -> dict:
    traced = [p["wall"] for p in passes if p["traced"]]
    untraced = [p["wall"] for p in passes if not p["traced"]]
    n = len(traced)
    s = tracer.summary()
    busy, calls, counts = s["busy"], s["calls"], s["counts"]

    def t(name):
        return busy.get(name, 0.0) / n

    def c(name):
        return calls.get(name, 0) / n

    conv = sum(t(f"autodiff.conv2d_same.{layer}.{d}")
               for layer in CONV_LAYERS for d in ("fwd", "bwd"))
    backward_calls = calls.get("autodiff.backward", 0)
    pass_s = statistics.median(traced)
    v = {f"autodiff.conv2d_same.{layer}.{d}_s":
         t(f"autodiff.conv2d_same.{layer}.{d}")
         for layer in CONV_LAYERS for d in ("fwd", "bwd")}
    v.update({
        "autodiff.conv2d_same.share": conv / pass_s,
        "autodiff.maxpool2x2.fwd_s": t("autodiff.maxpool2x2.fwd"),
        "autodiff.maxpool2x2.bwd_s": t("autodiff.maxpool2x2.bwd"),
        "autodiff.backward.s": t("autodiff.backward"),
        "autodiff.backward.other_s": t("autodiff.backward") - t(
            "autodiff.maxpool2x2.bwd") - sum(
            t(f"autodiff.conv2d_same.{layer}.bwd") for layer in CONV_LAYERS),
        "autodiff.graph_nodes": (counts.get("autodiff.graph_nodes", 0)
                                 / max(backward_calls, 1)),
        "autodiff.graph_mb": (counts.get("autodiff.graph_bytes", 0) / MB
                              / max(backward_calls, 1)),
        "encoder.encode.calls": c("encoder.encode"),
        "encoder.encode.frames": counts.get("encoder.encode.frames", 0) / n,
        "encoder.encode.s": t("encoder.encode"),
        "features.utterance_features.calls": c("features.utterance_features"),
        "features.utterance_features.s": t("features.utterance_features"),
        "pooling.pool.calls": c("pooling.pool"),
        "pooling.pool.s": t("pooling.pool"),
        "head.head_forward.s": t("head.head_forward"),
        "head.am_softmax_loss.s": t("head.am_softmax_loss"),
        "trainer.steps": c("trainer.adam_step"),
        "trainer.adam_step.s": t("trainer.adam_step"),
        "trainer.sample_chunk.s": t("trainer.sample_chunk"),
        "trainer.data_wait_s": (tracer.busy_under(
            "features.utterance_features", "trainer.train") / n
            + t("trainer.sample_chunk")),
        "trainer.save_checkpoint.calls": c("trainer.save_checkpoint"),
        "trainer.save_checkpoint.s": t("trainer.save_checkpoint"),
        "trainer.checkpoint_bytes": (counts.get("trainer.checkpoint_bytes", 0)
                                     / n),
        "trainer.load_model.s": t("trainer.load_model"),
        "model.write_embeddings.s": t("model.write_embeddings"),
        "model.read_embeddings.s": t("model.read_embeddings"),
        "metrics.read_trials.s": t("metrics.read_trials"),
        "metrics.score_trials.s": t("metrics.score_trials"),
        "metrics.cosine_score.calls": (counts.get("metrics.cosine_score.calls",
                                                  0) / n),
        "metrics.compute_eer.s": t("metrics.compute_eer"),
        "metrics.compute_min_dcf.s": t("metrics.compute_min_dcf"),
        "metrics.write_scores.s": t("metrics.write_scores"),
        "synthdata.generate_corpus.s": statistics.median(
            b.get("synthdata.generate_corpus", 0.0) for b in setup_busy),
        "trace.pass_s": pass_s,
        "trace.overhead_frac": pass_s / statistics.median(untraced) - 1.0,
    })
    units = {name: unit for name, unit, _ in PER_LAYER}
    return {name: {"value": v[name], "unit": units[name]} for name, *_ in
            PER_LAYER}
