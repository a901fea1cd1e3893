"""Per-layer metrics: roll up `isel --trace` files and combine them with the
in-process stage pass (`isel-stages stages`).

Each layer metric comes from one of three sources, printed next to it:
`trace` (events the command itself wrote), `stage` (the benchmark timing
that layer's public functions in process), or `outside` (files and output
the command left behind).
"""

import json


def read_trace(paths):
    """All events of one or more JSON-lines trace files, as `(kind, fields)`."""
    events = []
    for path in paths:
        with open(path, encoding="utf-8") as f:
            for line in f:
                if line.strip():
                    obj = json.loads(line)
                    (kind, fields), = obj.items()
                    events.append((kind, fields))
    return events


def rollup(events):
    """Layer metrics the trace events of a run carry. Keys are left out
    when the trace holds no event of that kind."""
    out = {}
    scans = [f for k, f in events if k == "CandidateScan"]
    ends = [f for k, f in events if k == "RunEnd"]
    if ends:
        candidates = sum(f["candidates"] for f in scans)
        steps = sum(f["steps"] for f in ends)
        issued = sum(f["issued"] for f in ends)
        cached = sum(f["cached"] for f in ends)
        out["algorithm1.candidates_scored"] = candidates
        out["algorithm1.steps"] = steps
        out["algorithm1.step_yield"] = steps / max(1, candidates)
        out["costmodel.whatif_issued"] = issued
        out["costmodel.whatif_cached"] = cached
        out["costmodel.hit_ratio"] = cached / max(1, issued + cached)
    epochs = [f["policy"] for k, f in events if k == "Epoch"]
    if epochs:
        out["tuner.epochs_noop"] = epochs.count("noop")
        out["tuner.epochs_adapt"] = epochs.count("adapt")
        out["tuner.epochs_scratch"] = epochs.count("from_scratch")
    merges = [f for k, f in events if k == "Merge"]
    if merges:
        out["arbiter.merges"] = len(merges)
        out["arbiter.merge_ms"] = sum(f["micros"] for f in merges) / 1e3
        out["arbiter.merge_max_ms"] = max(f["micros"] for f in merges) / 1e3
        out["arbiter.parts_max"] = max(f["parts"] for f in merges)
        out["arbiter.recombined"] = sum(f["recombined"] for f in merges)
    return out


def combine(names, trace, stage, outside):
    """One value per per-layer metric in `names` with its source: trace
    first, then the stage pass, then outside measurements; 0 where the
    workload does not run the layer."""
    values, sources = {}, {}
    for name in names:
        for source, table in (("trace", trace), ("stage", stage), ("outside", outside)):
            if name in table:
                values[name], sources[name] = float(table[name]), source
                break
        else:
            values[name], sources[name] = 0.0, "-"
    return values, sources


def attributed_ms(stage):
    """Time the in-process stage pass accounts for, in milliseconds: load,
    per-event layers times events, seals, tunes, merges and commits."""
    g = lambda name: float(stage.get(name, 0.0))
    per_event_ns = sum(
        g(name)
        for name in (
            "records.decode_ns_per_event",
            "shard.classify_ns_per_event",
            "window.fold_ns_per_event",
            "event.parse_ns_per_event",
            "frame.encode_ns_per_event",
        )
    )
    seals = g("tuner.epochs_noop") + g("tuner.epochs_adapt") + g("tuner.epochs_scratch")
    tune_ms = g("tuner.tune_ms_total") if "tuner.tune_ms_total" in stage else g("algorithm1.run_ms")
    return (
        g("io.load_ms")
        + g("stage.events") * per_event_ns / 1e6
        + seals * g("window.seal_us_per_epoch") / 1e3
        + tune_ms
        + g("arbiter.merge_ms")
        + g("checkpoint.commits") * g("checkpoint.commit_ms")
    )
