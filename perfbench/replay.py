"""Traced replays of the program's main calls, built from its public functions.

Each replay repeats what ``monte_carlo``, ``train`` or ``success_table`` does,
step by step, and records a span around every call into a layer.  The
replays return the same values as the calls they copy; the benchmark checks
that they do, so the spans describe the program's real work.

Layers without a public entry of their own count as self time of the span
that contains them: the count rules' threshold test inside a trial, and the
``W @ theta`` matvec inside a training iteration.
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from time import perf_counter_ns

import numpy as np

from codedcomp import (
    PeelingDecoder,
    assignment_source,
    concrete_assignment,
    gram,
    loss,
    partial_gd_step,
    recovery_threshold,
    successful_score_vector,
)
from codedcomp.blocks import DECODE_PEEL
from codedcomp.enumeration import all_types, score_vectors_of_type, total_vectors
from codedcomp.simulate import make_decode_state, message_times, trial_rng


class Tracer:
    """Spans and counts kept in memory and written out once, at the end.

    A span has a name, a parent span (-1 for a root), the request it served
    (trial, iteration or type index) and start/end times in nanoseconds.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("q")
        self.end = array("q")
        self.counts: dict[str, int] = defaultdict(int)
        self.request_id = -1
        self._open = [-1]

    def begin(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._open[-1])
        self.request.append(self.request_id)
        self.end.append(0)
        self._open.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = perf_counter_ns()
        self._open.pop()

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] += n

    def stats(self) -> dict[str, dict]:
        """Per span name: number of spans, total and self time in ns."""
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(self.start, dtype=np.int64)
        children = np.zeros(len(dur), dtype=np.int64)
        has_parent = parent >= 0
        np.add.at(children, parent[has_parent], dur[has_parent])
        out = {}
        for nid, label in enumerate(self.names):
            sel = name == nid
            out[label] = {
                "spans": int(np.count_nonzero(sel)),
                "total_ns": int(dur[sel].sum()),
                "self_ns": int((dur[sel] - children[sel]).sum()),
            }
        return out

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            request=np.frombuffer(self.request, dtype=np.int32),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
            count_names=np.array(sorted(self.counts)),
            count_values=np.array([self.counts[k] for k in sorted(self.counts)], dtype=np.int64),
        )


def _build(tr: Tracer, make):
    s = tr.begin("schemes.build")
    asn = make()
    tr.finish(s)
    tr.count("schemes.builds")
    tr.count("schemes.tasks", asn.n_orders * asn.n_workers)
    return asn


def _trial(tr: Tracer, source, fixed, q, model, seed, t, trial_name):
    """One ``monte_carlo`` trial, as ``simulate_iteration`` runs it.

    Returns (completion time, messages, redundant, recovered, completed,
    recovered mask).
    """
    top = tr.begin(trial_name)
    tr.count("simulate.trials")
    rng = trial_rng(seed, t)
    asn = fixed if fixed is not None else _build(tr, lambda: source(rng))
    threshold = recovery_threshold(asn.k_total, q)
    s = tr.begin("latency.sample")
    unit_times = model.sample_unit_times(rng, asn.n_workers)
    tr.finish(s)
    if threshold == 0:
        tr.finish(top)
        return 0.0, 0, 0, 0, True, np.zeros(asn.k_total, dtype=bool)
    s = tr.begin("simulate.order")
    arrivals = message_times(asn, unit_times)
    order = np.argsort(arrivals, axis=None, kind="stable")
    tr.finish(s)
    peel = asn.decode == DECODE_PEEL
    ingest_name = f"decoding.ingest.{asn.decode}"
    if peel:
        dec = PeelingDecoder(asn.k_total)
    else:
        state = make_decode_state(asn)
    n_workers = asn.n_workers
    ingested = pending_peak = 0
    stop_time, completed = np.inf, False
    for flat in order:
        m, w = divmod(int(flat), n_workers)
        s = tr.begin(ingest_name)
        if peel:
            for o in asn.messages[m].orders:
                dec.ingest(asn.tasks[o][w])
        else:
            state.ingest_message(w, m)
        tr.finish(s)
        ingested += 1
        if peel:
            pending_peak = max(pending_peak, dec.pending_count)
        if (dec if peel else state).recovered_count >= threshold:
            stop_time, completed = float(arrivals[m, w]), True
            break
    messages = int(np.count_nonzero(arrivals <= stop_time))
    if peel:
        mask, redundant = dec.recovered_mask(), dec.redundant_messages
    else:
        mask, redundant = state.mask(), state.redundant
    recovered = int(np.count_nonzero(mask))
    tr.finish(top)
    tr.count("simulate.incomplete_trials", int(not completed))
    tr.count("decoding.msgs_ingested", ingested)
    tr.count("decoding.redundant", redundant)
    tr.count("decoding.recovered", recovered)
    tr.counts["decoding.pending_peak"] = max(tr.counts["decoding.pending_peak"], pending_peak)
    return stop_time, messages, redundant, recovered, completed, mask


def replay_monte_carlo(tr: Tracer, cfg) -> dict[str, np.ndarray]:
    """``monte_carlo(assignment_source(cfg), ...)`` with a span per layer call."""
    source = assignment_source(cfg)
    fixed = None
    if not callable(source):
        # Built again under a span: the program builds a fixed assignment
        # once, before the first trial.
        fixed = _build(tr, lambda: assignment_source(cfg))
    model, name = cfg.model(), f"simulate.trial.{cfg.scheme}"
    rows = []
    for t in range(cfg.trials):
        tr.request_id = t
        rows.append(_trial(tr, source, fixed, cfg.q, model, cfg.seed, t, name)[:5])
    times, messages, redundant, recovered, completed = zip(*rows)
    return {
        "times": np.array(times),
        "messages": np.array(messages),
        "redundant": np.array(redundant),
        "recovered": np.array(recovered),
        "completed": np.array(completed),
    }


def replay_train(tr: Tracer, cfg, dataset) -> dict[str, np.ndarray]:
    """``train(dataset, assignment_source(cfg), ...)`` with spans; returns the
    per-iteration arrays and the final theta."""
    settings = cfg.train
    source = assignment_source(cfg)
    fixed = None if callable(source) else source
    probe = _build(tr, lambda: source(trial_rng(cfg.seed, 0))) if fixed is None else fixed
    k_total = probe.k_total
    rows = dataset.dim // k_total
    s = tr.begin("regression.gram")
    w_full, c = gram(dataset)
    tr.finish(s)
    n = dataset.n_samples
    model, name = cfg.model(), f"simulate.trial.{cfg.scheme}"
    theta = np.zeros(dataset.dim)
    out = {k: [] for k in ("losses", "times", "messages", "recovered_fraction")}
    for it in range(settings.iterations):
        tr.request_id = it
        top = tr.begin("regression.iteration")
        time_, msgs, _, recovered, _, mask = _trial(
            tr, source, fixed, cfg.q, model, cfg.seed, it, name
        )
        w_theta = w_full @ theta
        blocks = {
            int(b): w_theta[int(b) * rows : (int(b) + 1) * rows] for b in np.nonzero(mask)[0]
        }
        s = tr.begin("regression.step")
        theta = partial_gd_step(theta, mask, blocks, c, settings.eta / n)
        tr.finish(s)
        s = tr.begin("regression.loss")
        value = loss(dataset, theta)
        tr.finish(s)
        tr.finish(top)
        tr.count("regression.iterations")
        out["losses"].append(value)
        out["times"].append(time_)
        out["messages"].append(msgs)
        out["recovered_fraction"].append(recovered / k_total)
    result = {k: np.array(v) for k, v in out.items()}
    result["theta"] = theta
    return result


def replay_success_table(tr: Tracer, cfg) -> list[tuple[tuple[int, ...], int, int]]:
    """``success_table(concrete_assignment(cfg), q)`` with a span per vector."""
    asn = _build(tr, lambda: concrete_assignment(cfg))
    rows = []
    for i, ctype in enumerate(all_types(asn.n_workers, asn.max_score)):
        tr.request_id = i
        good = tested = 0
        for scores in score_vectors_of_type(ctype):
            s = tr.begin("enumeration.vector")
            ok = successful_score_vector(asn, scores, cfg.q)
            tr.finish(s)
            good += ok
            tested += 1
        s = tr.begin("enumeration.total_vectors")
        total = total_vectors(ctype)
        tr.finish(s)
        tr.count("enumeration.vectors", tested)
        tr.count("enumeration.successful", good)
        rows.append((ctype.counts, good, total))
    return rows
