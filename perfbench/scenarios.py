"""Seeded scenario generators for the benchmark workloads.

Every generated scenario carries the verdict that follows from how it was
built -- a closed form it satisfies, or a perturbation that breaks one --
never from running warpcurv.

A workload is a sequence of rounds.  Each round has a fixed composition of
structural templates (task, base, fiber geometries, connection kind), so
the cost mix is about the same for every seed; the seed draws the
coefficients and, outside oracle-sweep, details such as grid sizes, fiber
kinds and output formats.  Round r of workload w under seed s is a pure
function of (w, s, r).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("oracle-sweep", "grid-residuals", "families-scan")

_GOLDEN_DIR = Path("tests") / "scenarios"

# Golden scenarios of the task each workload covers, with their known
# verdicts.  They run once in every round.
GOLDENS = {
    "oracle-sweep": {"oracle-sphere": "pass", "oracle-fiber-torsion": "pass"},
    "grid-residuals": {
        "einstein-constant": "pass",
        "einstein-exponential": "pass",
        "einstein-quadratic-fail": "fail",
        "pseudo-einstein-circle": "pass",
        "scalar-static": "pass",
    },
    "families-scan": {
        "family-grw-einstein": "pass",
        "family-kasner3-scalar": "pass",
        "scan-grw-oscillatory": "pass",
    },
}

# Coordinate names warpcurv gives the fibers, in declaration order.
_FIBER_COORDS = (("x", "y"), ("z", "w"), ("p", "q"), ("r", "s"))
_BASE_COORDS = {"interval": ("t",), "flat:-+": ("t", "u"), "flat:-++": ("t", "u", "v")}
_KINDS = ("levi-civita", "semi-symmetric", "symmetrized")
_FORMATS = ("text", "csv", "json")
_P_LOCATIONS = ("base", "fiber", "none")


@dataclass(frozen=True)
class Scenario:
    sid: str
    text: str
    expect: str  # "pass" or "fail": the report's overall verdict
    task: str
    n_bar: int = 0  # total dimension; 0 for family and scan tasks
    points: int = 0  # oracle points (oracle-verify) or grid points


def generate_round(workload, seed, rnd, golden_root="."):
    """Scenarios of one round: generated ones in seeded order, then goldens."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}:{rnd}")
    made = _BUILDERS[workload](rng)
    rng.shuffle(made)
    out = []
    for k, (text, expect, task, n_bar, points) in enumerate(made):
        out.append(Scenario(f"{workload}/r{rnd}/{k:02d}", text, expect, task, n_bar, points))
    return out + _load_goldens(workload, golden_root)


def _load_goldens(workload, root="."):
    out = []
    for name, expect in GOLDENS[workload].items():
        path = Path(root) / _GOLDEN_DIR / f"{name}.txt"
        text = path.read_text(encoding="utf-8")
        fields = dict(_pairs(text))
        out.append(Scenario(f"golden/{name}", text, expect, fields["task"],
                            _golden_n_bar(text), _golden_points(fields)))
    return out


# ---------------------------------------------------------------------------
# Text helpers


def _f(x):
    return f"{x:.4f}"


def _text(pairs):
    return "".join(f"{k} = {v}\n" for k, v in pairs)


def _pairs(text):
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if "=" in line:
            k, _, v = line.partition("=")
            yield k.strip(), v.strip()


def _fiber_dim(tok):
    return {"S": 2, "H": 2, "C": 1}.get(tok) or int(tok[1:])


def _n_bar(base, toks):
    return len(_BASE_COORDS[base]) + sum(_fiber_dim(t) for t in toks)


def _golden_n_bar(text):
    pairs = list(_pairs(text))
    fibers = [v for k, v in pairs if k == "fiber.geometry"]
    if not fibers:
        return 0
    base = dict(pairs).get("base", "interval")
    dims = []
    for k, v in pairs:
        if k == "fiber.geometry":
            dims.append({"sphere": 2, "hyperbolic": 2, "circle": 1, "flat_torus": 2}[v])
        elif k == "fiber.dim":
            dims[-1] = int(v)
    return len(_BASE_COORDS[base]) + sum(dims)


def _golden_points(fields):
    grid = int(fields.get("grid.points", 17))
    return min(grid, 5) if fields["task"] == "oracle-verify" else grid


def _coord_names(index, tok):
    pair = _FIBER_COORDS[index]
    d = _fiber_dim(tok)
    return pair[:d] if d <= 2 else tuple(f"{pair[0]}{k + 1}" for k in range(d))


def _fiber_pairs(tok, warping, rng):
    if tok == "S":
        out = [("fiber.geometry", "sphere"), ("fiber.radius", _f(rng.uniform(0.8, 1.6)))]
    elif tok == "H":
        out = [("fiber.geometry", "hyperbolic")]
    elif tok == "C":
        out = [("fiber.geometry", "circle")]
    else:
        out = [("fiber.geometry", "flat_torus"), ("fiber.dim", str(_fiber_dim(tok)))]
    return out + [("fiber.warping", warping)]


def _warping(rng, base, shape, twist_coord=None):
    """A warping of one of four shapes that stays positive for t in [0, 1],
    u, v in [0, 1] and any fiber coordinate (the twist enters through a
    bounded cosine)."""
    shape %= 4
    a, c = rng.uniform(1.2, 2.2), rng.uniform(0.1, 0.5)
    if shape == 0:
        terms = [f"{_f(a)} + {_f(c)}*sin({_f(rng.uniform(0.5, 2.0))}*t)"]
    elif shape == 1:
        terms = [f"{_f(rng.uniform(1.0, 1.6))}*exp({_f(rng.uniform(-0.6, 0.6))}*t)"]
    elif shape == 2:
        terms = [f"sqrt({_f(a)} + {_f(c)}*t^2)"]
    else:
        terms = [f"{_f(a)} + {_f(c)}*cos(t) + {_f(rng.uniform(0.05, 0.3))}*t^2"]
    for name in _BASE_COORDS[base][1:]:
        terms.append(f"{_f(rng.uniform(0.05, 0.3))}*{name}")
    if twist_coord:
        terms.append(f"{_f(rng.uniform(0.05, 0.25))}*cos({twist_coord})")
    return " + ".join(terms)


def _p_components(rng, names, first_form):
    comps = []
    for k, name in enumerate(names):
        form = (first_form + k) % 3
        a = rng.uniform(0.3, 1.0)
        if form == 0:
            comps.append(_f(a))
        elif form == 1:
            comps.append(f"{_f(a)} + {_f(rng.uniform(0.1, 0.4))}*cos({name})")
        else:
            comps.append(f"{_f(a)}*sin({name})")
    return ",".join(comps)


# ---------------------------------------------------------------------------
# oracle-sweep: every structured clause against the coordinate oracle

# (base, fiber geometries, twisted, sample points).  S sphere, H hyperbolic
# plane, C circle, T<k> flat k-torus.  Points fall as n_bar grows so that no
# single scenario dominates a round.  At most four fibers are supported.
_ORACLE_TEMPLATES = (
    ("interval", ("S",), False, 3),
    ("interval", ("H",), False, 3),
    ("interval", ("T2",), True, 3),
    ("interval", ("C", "C"), False, 3),
    ("flat:-+", ("C",), False, 3),
    ("interval", ("S", "H"), False, 2),
    ("interval", ("T4",), False, 2),
    ("flat:-+", ("C", "S"), False, 2),
    ("flat:-++", ("H",), False, 2),
    ("interval", ("T2", "S"), True, 2),
    ("interval", ("S", "H", "T2", "S"), False, 1),
    ("flat:-+", ("C", "S", "H", "T2"), False, 1),
    ("interval", ("T3", "C", "H", "S"), True, 1),
)


def _oracle_round(rng):
    # The cost of a scenario depends on its structure (connection kind and
    # where P sits, fiber order, expression shapes) far more than on its
    # coefficients, so the structure rotates with the template and kind
    # index and only the coefficients follow the seed.  Every round then
    # costs about the same, whatever the seed.
    made = []
    slot = 0
    for j, (base, toks, twisted, points) in enumerate(_ORACLE_TEMPLATES):
        locations = _P_LOCATIONS[j % 3:] + _P_LOCATIONS[:j % 3]
        for q, (kind, loc) in enumerate(zip(_KINDS, locations)):
            order = toks[q % len(toks):] + toks[:q % len(toks)]
            pairs = [("task", "oracle-verify"), ("base", base)]
            if twisted:
                pairs.append(("twisted", "true"))
            for i, tok in enumerate(order):
                twist = _coord_names(i, tok)[0] if twisted else None
                pairs += _fiber_pairs(tok, _warping(rng, base, slot + i, twist), rng)
            if loc == "base":
                pairs += [("p.location", "base"),
                          ("p.components", _p_components(rng, _BASE_COORDS[base], slot))]
            elif loc == "fiber":
                i = (j + q) % len(order)
                pairs += [("p.location", f"fiber:{i}"),
                          ("p.components", _p_components(rng, _coord_names(i, order[i]), slot))]
            pairs += [("connection", kind), ("grid.points", str(points)),
                      ("format", _FORMATS[(j + q) % 3])]
            slot += 1
            made.append((_text(pairs), "pass", "oracle-verify", _n_bar(base, toks), points))
    return made


# ---------------------------------------------------------------------------
# grid-residuals: Einstein, pseudo-Einstein and scalar residuals on fine grids


def _einstein(rng, n_flat, n_hyp, perturb):
    """Flat fibers warped by exp(t + c_i) next to n_hyp hyperbolic planes
    warped by 1/sqrt(2 n_hyp) are Einstein with lambda = 2 n_hyp (lambda = 0
    without hyperbolic fibers).  A perturbation of one warping or of lambda
    breaks the trace condition."""
    toks = [rng.choice(("C", "T2", "T3")) for _ in range(n_flat)] + ["H"] * n_hyp
    rng.shuffle(toks)
    warps = []
    for tok in toks:
        if tok == "H":
            warps.append(f"1/sqrt({2 * n_hyp})")
        else:
            warps.append(f"exp(t + {_f(rng.uniform(-0.5, 0.5))})")
    lam = 2.0 * n_hyp
    if perturb:
        eps = rng.uniform(0.05, 0.3)
        what = rng.randrange(2)
        if what == 0:
            i = rng.randrange(len(toks))
            extra = f"{_f(eps)}*sin(t)" if toks[i] == "H" else f"{_f(eps)}*t^2"
            warps[i] = f"{warps[i]} + {extra}"
        else:
            lam += eps
    pairs = [("task", "einstein-check"), ("base", "interval")]
    for tok, warp in zip(toks, warps):
        pairs += _fiber_pairs(tok, warp, rng)
    if rng.random() < 0.5:
        pairs += [("p.location", "base"), ("p.components", "1")]
    points = rng.randrange(48, 97)
    pairs += [("connection", rng.choice(_KINDS)), ("lambda", repr(lam)),
              ("grid.points", str(points)), ("format", rng.choice(_FORMATS))]
    return (_text(pairs), "fail" if perturb else "pass", "einstein-check",
            _n_bar("interval", toks), points)


def _pseudo(rng, n_other, perturb):
    """A circle warped by a constant a carries P = c, the other flat fibers
    are warped by exp(k t + c_i) with total dimension L.  The symmetrized
    Ricci tensor is Einstein with lambda = -k^2 L exactly when
    c = k sqrt(L / (n_bar - 1)) / a.  Scaling c breaks the torsion-fiber
    condition."""
    others = [rng.choice(("C", "T2", "T3")) for _ in range(n_other)]
    r = rng.randrange(n_other + 1)
    toks = others[:r] + ["C"] + others[r:]
    big_l = sum(_fiber_dim(t) for t in others)
    n_bar = _n_bar("interval", toks)
    k = round(rng.uniform(0.5, 1.2), 4)
    a = round(rng.uniform(0.7, 1.4), 4)
    pairs = [("task", "einstein-check"), ("base", "interval")]
    for i, tok in enumerate(toks):
        warp = _f(a) if i == r else f"exp({_f(k)}*t + {_f(rng.uniform(-0.4, 0.4))})"
        pairs += _fiber_pairs(tok, warp, rng)
    comp = f"{_f(k)}*sqrt({big_l}/{n_bar - 1})/{_f(a)}"
    if perturb:
        comp = f"{comp}*{_f(1.0 + rng.uniform(0.1, 0.3))}"
    points = rng.randrange(16, 33)
    pairs += [("p.location", f"fiber:{r}"), ("p.components", comp),
              ("connection", "semi-symmetric"), ("lambda", repr(-(k * k) * big_l)),
              ("grid.points", str(points)), ("format", rng.choice(_FORMATS))]
    return (_text(pairs), "fail" if perturb else "pass", "einstein-check", n_bar, points)


def _scalar(rng, variant):
    """Scalar curvature: closed form against the oracle at every grid point,
    plus constancy over the grid.  Constant warpings, flat fibers under
    exp(k t + c) and a constant P on a constantly warped circle give a
    constant scalar; a sinusoidal warping on a curved fiber does not."""
    p_pairs = [("p.location", "base"), ("p.components", "1")] if rng.random() < 0.5 else []
    if variant == "constant":
        toks = [rng.choice(("S", "H", "T2"))]
        warps = [_f(rng.uniform(0.6, 2.0))]
    elif variant == "exponential":
        toks = ["C", "C"]
        warps = [f"exp({_f(rng.uniform(-0.8, 0.8))}*t + {_f(rng.uniform(-0.4, 0.4))})"
                 for _ in toks]
    elif variant == "fiber-field":
        toks = ["C", "C"]
        r = rng.randrange(2)
        warps = [f"exp({_f(rng.uniform(-0.8, 0.8))}*t)"] * 2
        warps[r] = _f(rng.uniform(0.6, 1.6))
        p_pairs = [("p.location", f"fiber:{r}"), ("p.components", _f(rng.uniform(0.3, 1.0)))]
    else:  # "varying"
        toks = [rng.choice(("S", "H"))]
        warps = [f"{_f(rng.uniform(1.2, 2.0))} + {_f(rng.uniform(0.1, 0.4))}"
                 f"*sin({_f(rng.uniform(0.8, 2.0))}*t)"]
    pairs = [("task", "scalar-check"), ("base", "interval")]
    for tok, warp in zip(toks, warps):
        pairs += _fiber_pairs(tok, warp, rng)
    points = rng.randrange(9, 18)
    pairs += p_pairs + [("grid.points", str(points)), ("format", rng.choice(_FORMATS))]
    return (_text(pairs), "fail" if variant == "varying" else "pass", "scalar-check",
            _n_bar("interval", toks), points)


def _grid_round(rng):
    made = [_einstein(rng, n_flat, n_hyp, False)
            for n_flat, n_hyp in ((1, 0), (2, 0), (3, 0), (0, 1), (0, 2), (1, 1), (2, 2))]
    made += [_einstein(rng, 1, 0, True), _einstein(rng, 1, 1, True)]
    made += [_pseudo(rng, n, False) for n in (1, 2, 3)] + [_pseudo(rng, 2, True)]
    made += [_scalar(rng, v) for v in ("constant", "exponential", "fiber-field",
                                       "constant", "varying")]
    return made


# ---------------------------------------------------------------------------
# families-scan: closed-form families with the RK4 cross-check, lattice scans


def _family(rng, kind, params):
    pairs = [("task", "family-verify"), ("family.kind", kind)]
    pairs += [(f"family.{k}", v) for k, v in params]
    pairs += [("seed", str(rng.randrange(1, 10_000))), ("format", rng.choice(_FORMATS))]
    return (_text(pairs), "pass", "family-verify", 0, 0)


def _families(rng):
    """One scenario per family case; each case yields at least one closed-form
    family, so the residual and RK4 checks run."""
    l_exp = rng.randrange(2, 6)
    grw_scalar_l = rng.choice((2, 4))
    thr = grw_scalar_l**3 / (4.0 * (grw_scalar_l + 1.0)) + grw_scalar_l
    p1 = round(rng.uniform(0.6, 1.6), 3)
    # distinct exponents summing to exactly zero: round before taking the third
    a, b = round(rng.uniform(0.3, 1.2), 4), round(-rng.uniform(0.3, 1.2), 4)
    if abs(a + b) < 0.1:
        b = round(b - 0.2, 4)
    return [
        _family(rng, "grw-einstein", [("l", str(l_exp)), ("lam", "0"), ("lam_fiber", "0")]),
        _grw_einstein_constant(rng),
        _family(rng, "grw-scalar", [("l", "3"), ("scalar", _f(rng.choice(
            (rng.uniform(0.5, 4.4), rng.uniform(5.0, 7.0))))),
            ("s_fiber", _f(rng.uniform(0.0, 6.0)))]),
        _family(rng, "grw-scalar", [("l", str(grw_scalar_l)), ("s_fiber", "0"), ("scalar", _f(
            thr + rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 1.5)))]),
        _family(rng, "kasner-einstein", [("type", "II"), ("p", f"{p1},{-p1 / 2}"),
                                         ("dims", "1,2"), ("lam", "0"),
                                         ("lam_fibers", "0,0")]),
        _family(rng, "kasner-einstein", [("type", "II"), ("p", f"{_f(rng.uniform(0.8, 2.0))},0"),
                                         ("dims", "1,2"), ("lam", "-6"),
                                         ("lam_fibers", "0,-9")]),
        _family(rng, "kasner-einstein", [("type", "III"),
                                         ("p", f"{_f(a)},{_f(b)},{_f(-(a + b))}"),
                                         ("dims", "1,1,1"), ("lam", "0"),
                                         ("lam_fibers", "0,0,0")]),
        _family(rng, "kasner-scalar", [("type", "III"), ("p", ",".join(
            _f(rng.uniform(0.3, 2.0)) for _ in range(3))), ("dims", "1,1,1"),
            ("scalar", _f(rng.uniform(2.0, 8.0))), ("s_fibers", "0,0,0")]),
        _family(rng, "kasner-scalar", [("type", "II"), ("p", ",".join(
            _f(rng.uniform(0.3, 2.0)) for _ in range(2))), ("dims", "1,2"),
            ("scalar", _f(rng.uniform(2.0, 8.0))), ("s_fibers", "0,0")]),
    ]


def _grw_einstein_constant(rng):
    l = rng.randrange(2, 6)
    return _family(rng, "grw-einstein", [("l", str(l)), ("lam", str(l)),
                                         ("lam_fiber", _f(rng.uniform(0.5, 3.0)))])


def _scan(rng, case, params):
    pairs = [("task", "nonexistence-scan"), ("scan.case", case)]
    pairs += [(f"scan.{k}", v) for k, v in params]
    pairs += [("format", rng.choice(_FORMATS))]
    return (_text(pairs), "pass", "nonexistence-scan", 0, 0)


def _scans(rng):
    """Each scan case with parameters in the branch where it applies."""
    return [
        _grw_scan(rng),
        _scan(rng, "kasner2-einstein-oscillatory", [
            ("lam", _f(rng.uniform(4.0, 8.0))), ("lam2", _f(rng.uniform(0.5, 2.0))),
            ("p1", _f(rng.uniform(0.6, 1.5)))]),
        _scan(rng, "kasner3-einstein-linear", [("lam", _f(rng.uniform(4.0, 8.0)))]),
    ]


def _grw_scan(rng):
    l = rng.choice((2, 3))
    return _scan(rng, "grw-einstein-oscillatory", [
        ("l", str(l)), ("lam", _f(l + rng.uniform(1.5, 4.0))),
        ("lam_fiber", _f(rng.uniform(0.5, 2.0)))])


def _families_round(rng):
    # One more constant-warping family and grw scan (both cheap) put the
    # median inside the cluster of Einstein families near 25-30 ms rather
    # than on its edge with the scalar families and Kasner scans above 50 ms,
    # where a few slow samples would move it far.
    return (_families(rng) + [_grw_einstein_constant(rng)] + _scans(rng) + _scans(rng)
            + [_grw_scan(rng)])


_BUILDERS = {
    "oracle-sweep": _oracle_round,
    "grid-residuals": _grid_round,
    "families-scan": _families_round,
}

