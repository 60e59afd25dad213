"""The ``calibration_lib`` workload: an in-process library loop.

It builds an fGn ensemble with ``generate`` at n = 4096 for several
target exponents and seeds, and sends each path through the public calls
the CLI commands make: ``summarize``; ``acf_fft`` plus
``first_zero_crossing``; ``rs_table`` plus ``fit_h``; ``hurst_suite``;
and ``perm_test`` against an independent path. ``lyap_k`` plus
``lyap_fit`` run on seeded logistic-map paths with the README's
parameters. It pays no interpreter start per operation, and the fGn
factor cache is warm after the first path for each h, so it isolates the
cost of each layer call; its set-up is the dense fGn factorisation.

The parent (``run_calibration`` in ``runners.py``) starts this file as
several child processes in turn, each with a share of the run's
seconds; every child pays its own set-up and prints one JSON line with
everything it measured. Pooling the children's samples keeps one
process's memory layout from setting the run's figures.
"""

import json
import sys
import time
from dataclasses import asdict

LYAP_PARAMS = dict(m=1, d=1, theiler=10, eps=1e-3, n_ref=200, s=8, k_min=1)
LYAP_FIT = (0, 4)


def _seeds(seed: int, cfg: dict):
    import numpy as np

    rng = np.random.default_rng([seed, 3])
    shape = (len(cfg["hs"]), cfg["paths_per_h"])
    x_seeds = rng.integers(0, 2**31 - 1, size=shape).tolist()
    y_seeds = rng.integers(0, 2**31 - 1, size=shape).tolist()
    perm_seeds = rng.integers(0, 2**31 - 1, size=shape).tolist()
    x0s = rng.uniform(0.05, 0.95, size=cfg["lyap_paths"]).tolist()
    return x_seeds, y_seeds, perm_seeds, x0s


def _fingerprint(result) -> str:
    import hashlib
    import pickle

    return hashlib.sha256(pickle.dumps(result)).hexdigest()


def child_main(cfg: dict) -> int:
    seed = cfg["seed"]

    import longmem  # set-up: the import ...

    x_seeds, y_seeds, perm_seeds, x0s = _seeds(seed, cfg)
    n, hs = cfg["n"], cfg["hs"]
    cold = []
    for hi, h in enumerate(hs):  # ... and the first generate for each (h, n)
        t = time.perf_counter()
        longmem.generate(longmem.GenSpec(kind="fgn", n=n, seed=x_seeds[hi][0], h=h))
        cold.append(time.perf_counter() - t)
    setup_done = time.perf_counter()

    import checks
    import numpy as np
    import speed
    from tracing import Tracer, library, time_draws

    lyap_params = longmem.EmbeddingParams(**LYAP_PARAMS)
    logistic = [
        longmem.generate(longmem.GenSpec(kind="logistic", n=cfg["lyap_n"], x0=x0))
        for x0 in x0s
    ]
    plain = library(longmem)
    first: dict = {}  # (kind, path) -> fingerprint of the first result
    op_counts: dict = {}  # (kind, path) -> operations run
    suite_h: dict = {}  # hi -> corrected-empirical estimates, one per path
    lyap_rates: dict = {}  # lyap path -> lambda1
    problems: list[str] = []
    events: list = []  # (kind, pass, start, end) of every untraced operation
    refs: list = []  # (start, end) of every speed reference
    state = {"attempted": 0, "failed": 0}

    def reference(force=False):
        if force or time.perf_counter() - refs[-1][1] >= speed.KERNEL_INTERVAL_S:
            t = time.perf_counter()
            speed.kernel()
            refs.append((t, time.perf_counter()))

    def check(kind, key, result, oracle):
        """Oracle on first sight of (kind, key); bit-equality afterwards."""
        op_counts[(kind, key)] = op_counts.get((kind, key), 0) + 1
        found = []
        print_ = _fingerprint(result)
        if (kind, key) not in first:
            first[(kind, key)] = print_
            found = oracle()
        elif first[(kind, key)] != print_:
            found = [f"{kind} {key}: result differs from its first run"]
        state["attempted"] += 1
        if found:
            state["failed"] += 1
            problems.extend(found)

    def run_pass(lib, tracer, pass_no):
        walls = []

        def op(kind, key, fn, oracle):
            if tracer is not None:
                tracer.op = len(tracer.spans)  # the root's index: unique per operation
                with tracer.span(f"op.{kind}") as root:
                    result = fn()
                wall = root["end"] - root["start"]
            else:
                t = time.perf_counter()
                result = fn()
                end = time.perf_counter()
                wall = end - t
                events.append((kind, pass_no, t, end))
            walls.append(wall)
            check(kind, key, result, lambda: oracle(result))
            return result

        for hi, h in enumerate(hs):
            for i in range(cfg["paths_per_h"]):
                if tracer is None:
                    reference()
                key = (h, i)
                x_spec = longmem.GenSpec(kind="fgn", n=n, seed=x_seeds[hi][i], h=h)
                y_spec = longmem.GenSpec(kind="fgn", n=n, seed=y_seeds[hi][i], h=h)
                ts = op("gen", key, lambda: lib.generate(x_spec),
                        lambda r: checks.generated_problems(r.values, x_spec))
                ys = op("gen", key + ("y",), lambda: lib.generate(y_spec),
                        lambda r: checks.generated_problems(r.values, y_spec))
                x, y = ts.values, ys.values
                op("stats", key, lambda: lib.summarize(ts),
                   lambda r: checks.summary_problems(x, r.mean, r.variance))

                def acf():
                    res = lib.acf_fft(ts, cfg["acf_max_lag"])
                    return res, lib.first_zero_crossing(res)

                op("acf", key, acf,
                   lambda r: checks.acf_problems(x, r[0].coefficients, r[1]))

                def hurst():
                    table = lib.rs_table(ts)
                    return table, lib.fit_h(table)

                op("hurst", key, hurst, lambda r: checks.rs_problems(
                    x, [(p.window, p.mean_rs, p.std_rs, p.blocks) for p in r[0]], r[1].h))

                def suite_oracle(r):
                    suite_h.setdefault(hi, []).append(r.h_corrected_empirical)
                    values = asdict(r).values()
                    return [] if all(np.isfinite(v) for v in values) else ["non-finite suite"]

                op("suite", key, lambda: lib.hurst_suite(ts), suite_oracle)
                op("permtest", key,
                   lambda: lib.perm_test(x, y, n_perm=cfg["n_perm"], seed=perm_seeds[hi][i]),
                   lambda r: checks.permtest_problems(
                       x, y, r.r_obs,
                       {"p_lower": r.p_lower, "p_upper": r.p_upper, "p_two_sided": r.p_two_sided},
                       r.r_sorted_summary, r.r_crit_lower, r.r_crit_upper))
                path = (hi * cfg["paths_per_h"] + i) % len(logistic)

                def lyap():
                    curve = lib.lyap_k(logistic[path], lyap_params)
                    return curve, lib.lyap_fit(curve, *LYAP_FIT)

                def lyap_oracle(r):
                    lyap_rates[path] = r[1].lambda1
                    return checks.lyap_curve_problems(
                        r[0].s_values, r[0].ref_counts, lyap_params.n_ref, LYAP_FIT,
                        r[1].lambda1, r[1].r_squared)

                op("lyap", ("logistic", path), lyap, lyap_oracle)
        return walls

    tracer = Tracer() if cfg["trace"] else None
    traced = library(longmem, tracer) if tracer is not None else None
    overhead = []
    start = time.perf_counter()
    passes = 0
    reference(force=True)
    while True:
        walls = run_pass(plain, None, passes)
        if tracer is not None:
            traced_walls = run_pass(traced, tracer, passes)
            overhead.extend(a - b for a, b in zip(traced_walls, walls))
        passes += 1
        elapsed = time.perf_counter() - start
        if elapsed * (passes + 1) / passes > cfg["seconds"]:
            break
    reference(force=True)

    for hi, h in enumerate(hs):
        found = checks.ensemble_h_problems(h, suite_h[hi])
        if found:
            problems.extend(found)
            state["failed"] += sum(c for (k, key), c in op_counts.items()
                                   if k == "suite" and key[0] == h)
    found = checks.ensemble_lyap_problems(list(lyap_rates.values()))
    if found:
        problems.extend(found)
        state["failed"] += sum(c for (k, _), c in op_counts.items() if k == "lyap")

    draw_s = []
    if tracer is not None:
        draw_s = time_draws(longmem.nth_permutation, perm_seeds[0][0], cfg["n_perm"], n)

    print(json.dumps({
        "setup_done": setup_done,
        "generate_cold": cold,
        "timings": speed.timings(events, refs, speed.KERNEL_NOMINAL_S),
        "passes": passes,
        "overhead": overhead,
        "draw_s": draw_s,
        "spans": tracer.spans if tracer is not None else [],
        "attempted": state["attempted"],
        "failed": state["failed"],
        "problems": problems,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(child_main(json.loads(sys.argv[1])))
