"""Correctness checks of each workload's outputs.

Every check holds the program's output against a computation written here,
from the model's definition, never against stored output.  A check returns
a list of failure messages; an empty list means the outputs are correct.
Row status is not checked here: a row that is not ``ok`` counts as a failed
operation instead (see ``run.py``).
"""

from __future__ import annotations

import csv
import io
import math
import re

import numpy as np

from workloads import planned_directions

Z = 5.0  # allowance of every statistical check, in standard errors


def read_csv(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


# ---------------------------------------------------------------------------
# Independent models
# ---------------------------------------------------------------------------


def _binomial_pmf(n: int, p: np.ndarray) -> np.ndarray:
    """(len(p), n+1) binomial probabilities, computed in log space."""
    k = np.arange(n + 1)
    log_choose = np.concatenate([[0.0], np.cumsum(np.log((n - k[:-1]) / (k[:-1] + 1.0)))])
    p = np.clip(p[:, None], 1e-300, 1.0 - 1e-16)
    return np.exp(log_choose + k * np.log(p) + (n - k) * np.log1p(-p))


def pricing_objective(x, theta, rho, buyers: int) -> float:
    """Expected negative profit under softmax choice and binomial restocking.

    Buyer choice: p_i = exp(g_i (theta_i - x_i)) / (0.1 n + sum_j ...), with
    g_i = 2 pi / (sqrt 6 theta_i).  Item i's demand is Binomial(buyers, p_i);
    its restocking cost has slope 2 w_i up to 0.5 buyers/n, w_i up to
    1.5 buyers/n and 3 w_i beyond, with w_i = rho_i theta_i.
    """
    x, theta, rho = (np.asarray(v, dtype=float) for v in (x, theta, rho))
    n = theta.size
    g = 2.0 * math.pi / (math.sqrt(6.0) * theta)
    weights = np.exp(g * (theta - x))
    p = weights / (0.1 * n + weights.sum())
    k = np.arange(buyers + 1, dtype=float)
    lo, hi = 0.5 * buyers / n, 1.5 * buyers / n
    units = 2.0 * np.minimum(k, lo) + np.clip(k - lo, 0.0, hi - lo) + 3.0 * np.maximum(k - hi, 0.0)
    restock = float(((_binomial_pmf(buyers, p) @ units) * rho * theta).sum())
    return -buyers * float(x @ p) + restock


def population_loss(x, features, labels) -> float:
    """Mean cross-entropy after every individual best-responds to x.

    An individual with a negative score moves onto the acceptance boundary
    when the squared distance is below the reward 2, and otherwise stays.
    """
    x = np.asarray(x, dtype=float)
    features = np.asarray(features, dtype=float)
    labels = np.asarray(labels, dtype=float)
    w, b = x[:-1], x[-1]
    scores = features @ w + b
    gaps = -scores / np.linalg.norm(w)
    moved = (scores < 0) & (gaps**2 < 2.0)
    scores = np.where(moved, 0.0, scores)
    loss = np.where(labels == 1.0, np.logaddexp(0.0, -scores), np.logaddexp(0.0, scores))
    return float(loss.mean())


def exact_mse(kind: str, d: int, mu: float, n: int, m: int, sigma: float, grad_sq: float) -> float:
    """Exact MSE of one estimate on the isotropic quadratic (no smoothing bias).

    With s^2 = sigma^2 / (2 mu^2 m): coordinate d s^2, sphere
    ((d-1)|g|^2 + d^2 s^2) / N, gaussian ((d+1)|g|^2 + d s^2) / N.
    """
    s2 = sigma**2 / (2.0 * mu**2 * m)
    if kind == "coordinate":
        return d * s2
    if kind == "sphere":
        return ((d - 1) * grad_sq + d * d * s2) / n
    if kind == "gaussian":
        return ((d + 1) * grad_sq + d * s2) / n
    raise ValueError(kind)


# ---------------------------------------------------------------------------
# Per-workload checks
# ---------------------------------------------------------------------------


def _oracle(oracle: dict, points, expected_fn, what: str) -> list[str]:
    failures = []
    if len(oracle.get("mean", ())) != len(points):
        return [f"oracle check: expected {len(points)} points"]
    for j, (mean, se, point) in enumerate(zip(oracle["mean"], oracle["se"], points)):
        expected = expected_fn(point)
        if not abs(mean - expected) <= Z * se:
            failures.append(f"oracle check point {j}: mean draw {mean:.6g} vs {what} "
                            f"{expected:.6g} (se {se:.3g})")
    return failures


def _budget(row: dict, budget: int, cost: int) -> list[str]:
    used = int(row["samples_used"])
    if used > budget or budget - used >= cost or used % cost:
        return [f"{row['method']} seed {row['seed']}: samples_used {used} is not the "
                f"whole estimates of cost {cost} that fit budget {budget}"]
    return []


_TUNED = re.compile(r"^tuned (\w+): step=\S+ mu=\S+ directions=(\d+) batch=(\d+)$", re.M)


def check_pricing(workload, outputs: dict, oracle: dict) -> list[str]:
    p = workload.params
    d = len(p["theta"])
    rows = read_csv(outputs["results.csv"])
    tuned = {m: (int(n), int(b)) for m, n, b in _TUNED.findall(outputs["stdout.txt"])}
    failures = []
    if set(tuned) != set(p["methods"]):
        failures.append(f"tuned methods {sorted(tuned)} != {sorted(p['methods'])}")
    for row in rows:
        if row["method"] in tuned and row["status"] == "ok":
            n, b = tuned[row["method"]]
            cost = 2 * (d if row["method"] == "coordinate" else n) * b
            failures += _budget(row, p["budget"], cost)
    ok = [r for r in rows if r["status"] == "ok"]
    start = pricing_objective(p["x0"], p["theta"], p["rho"], p["buyers"])
    if ok:
        mean = float(np.mean([float(r["obj_mean"]) for r in ok]))
        se = math.sqrt(sum(float(r["obj_sd"]) ** 2 for r in ok) / p["eval_draws"]) / len(ok)
        if not mean < start - Z * se:
            failures.append(f"mean obj_mean {mean:.6g} is not below the start objective "
                            f"{start:.6g} by {Z} se ({se:.3g})")
    return failures + _oracle(
        oracle, workload.check_points,
        lambda x: pricing_objective(x, p["theta"], p["rho"], p["buyers"]),
        "closed-form objective")


def check_strategic(workload, outputs: dict, oracle: dict) -> list[str]:
    p = workload.params
    rows = read_csv(outputs["results.csv"])
    failures = []
    for row in rows:
        if row["status"] == "ok":
            failures += _budget(row, p["budget"], p["costs"][row["method"]])
    for t in read_csv(outputs["trace.csv"]):
        if not float(t["obj_estimate"]) >= 0.0:
            failures.append(f"{t['method']} seed {t['seed']}: negative loss "
                            f"{t['obj_estimate']} in trace")
            break
    return failures + _oracle(
        oracle, workload.check_points,
        lambda x: population_loss(x, p["features"], p["labels"]),
        "population loss")


REPORT_LINE = re.compile(
    r"^mse_bounds: (?P<check>.+?)\s{2,}mu=(?P<mu>\S+) N=(?P<n>\d+) m=(?P<m>\d+)"
    r"\s+(?P<emp>\S+)\s+\S+\s+\S+\s+(?P<status>pass|FAIL)$", re.M)


def check_verify(workload, outputs: dict) -> list[str]:
    p = workload.params
    d, sigma, reps = p["d"], p["sigma"], p["replicates"]
    grad_sq = d * p["x"] ** 2
    report = outputs.get("verify_report.txt", "")
    lines = list(REPORT_LINE.finditer(report))
    failures = []
    if len(lines) != workload.expected_ops:
        failures.append(f"report holds {len(lines)} checks, not {workload.expected_ops}")
    # relative standard error of a mean of `reps` squared errors is at most sqrt(2 / reps)
    rel = Z * math.sqrt(2.0 / reps)
    for line in lines:
        if line["status"] != "pass":
            continue  # counted as a failed operation
        mu, n, m = float(line["mu"]), int(line["n"]), int(line["m"])
        emp = float(line["emp"])
        check = line["check"]
        if check.startswith("gaussian-at-mu/sqrt(d)"):
            ratio = (exact_mse("gaussian", d, mu / math.sqrt(d), n, m, sigma, grad_sq)
                     / exact_mse("sphere", d, mu, n, m, sigma, grad_sq))
            exact, tol = max(ratio, 1.0 / ratio), rel * math.sqrt(2.0)
        else:
            exact, tol = exact_mse(check.split()[0], d, mu, n, m, sigma, grad_sq), rel
        if not abs(emp - exact) <= tol * exact:
            failures.append(f"{check} at mu={mu} N={n} m={m}: {emp:.6g} vs exact "
                            f"{exact:.6g} (allowed {tol:.1%})")
    return failures


def check_planned(workload, outputs: dict, oracle: dict) -> list[str]:
    p = workload.params
    cost = 2 * planned_directions(p["d"], p["epsilon"])
    start_sq = float(np.dot(p["x0"], p["x0"]))  # |grad F(x0)|^2 with F = |x|^2 / 2
    failures = []
    for row in read_csv(outputs["results.csv"]):
        if row["status"] != "ok":
            continue
        tag = f"{row['method']} seed {row['seed']}"
        used = int(row["samples_used"])
        if used != (p["budget"] // cost) * cost:
            failures.append(f"{tag}: samples_used {used} != floor(budget/2N)*2N with "
                            f"2N = {cost}")
        g = float(row["grad_norm_sq"])
        # the uniform output pick may return x0 itself, where the two are equal
        if not g <= start_sq * (1.0 + 1e-12):
            failures.append(f"{tag}: grad_norm_sq {g:.6g} above |grad F(x0)|^2 {start_sq:.6g}")
        se = float(row["obj_sd"]) / math.sqrt(p["eval_draws"])
        if not abs(float(row["obj_mean"]) - g / 2.0) <= Z * se:
            failures.append(f"{tag}: obj_mean {row['obj_mean']} vs grad_norm_sq/2 {g / 2:.6g}")
    return failures


def failed_ops(workload, outputs: dict, rc: int) -> int:
    """Operations of one round that failed: rows not ``ok``, or FAIL checks.

    A run that exits nonzero, or leaves no output, fails every operation.
    """
    if workload.command == "verify":
        if rc not in (0, 1) or "verify_report.txt" not in outputs:
            return workload.expected_ops
        return len(re.findall(r"\s+FAIL$", outputs["verify_report.txt"], re.M))
    if rc != 0 or "results.csv" not in outputs:
        return workload.expected_ops
    rows = read_csv(outputs["results.csv"])
    return sum(r["status"] != "ok" for r in rows) + max(0, workload.expected_ops - len(rows))


def check(workload, outputs: dict, oracle: dict) -> list[str]:
    """Failure messages for one round's outputs of ``workload``."""
    if workload.command == "verify":
        return check_verify(workload, outputs)
    if "results.csv" not in outputs:
        return ["zodd run left no results.csv"]
    fn = {"pricing_tune": check_pricing, "strategic_run": check_strategic,
          "planned_wide": check_planned}[workload.name]
    return fn(workload, outputs, oracle)
