"""Regenerate perfbench/reference/<workload>.json: every operation of every
workload with its frozen expected output.

Run from the repository root:

    PYTHONPATH=src python3 perfbench/freeze.py

Only rerun it when the operation set changes; the reference exists to catch
a library change that alters an output.  The oracle counts are also checked
here against the zigzag DP's sum of squared multiplicities of the same
(n, m, q), so the frozen value is one that two independent paths agree on.
"""

from __future__ import annotations

import json
import sys

import workloads as wl


def _finish(ops, sizes) -> dict:
    """The workload's frontier: the operations of the largest size."""
    top = max(sizes)
    return {"largest": [op["id"] for op, size in zip(ops, sizes) if size == top], "ops": ops}


def freeze() -> dict:
    import glstab
    import glstab.oracle
    from glstab.degrees import vic_hom_count
    from glstab.labels import format_shape, label_of_shape, shape_to_json

    out = {}

    # Instance sizes, and so the frontier: the decomposition with the largest
    # m; the family of pinned counts at the largest (m, ell), since one count
    # takes milliseconds; the oracle instances at the top of the point range
    # (points rounded to 10^4: the three near 6*10^4), so that the metric
    # does not rest on the timing of a single instance
    ops, sizes = [], []
    for n, m, q in wl.DECOMPOSE:
        dec = glstab.decompose_perm_module(n, m, q)
        ops.append({
            "id": f"decompose_perm_module({n},{m},{q})",
            "kind": "decompose_perm_module",
            "args": [n, m, q],
            "expect": wl.decompose_entries(dec),
        })
        sizes.append(m)
    out["stable-decompose"] = _finish(ops, sizes)

    ops, sizes = [], []
    for m, q in wl.PINNED:
        shapes = [e.shape for e in glstab.stable_decomposition(m, q).entries]
        for ell in (3 * m, 3 * m + 1):
            nu = glstab.trivial_label(ell - m)
            for shape in shapes:
                mu = glstab.pad(label_of_shape(shape), ell)
                count = glstab.count_zigzag(nu, mu, m, q)
                ops.append({
                    "id": f"count_zigzag(m={m},q={q},l={ell},{format_shape(shape)})",
                    "kind": "count_zigzag",
                    "args": {"m": m, "q": q, "ell": ell, "shape": shape_to_json(shape)},
                    "expect": count,
                })
                sizes.append((m, ell))
    out["pinned-paths"] = _finish(ops, sizes)

    ops, sizes = [], []
    for n, m, q in wl.DOUBLE_COSETS:
        count = glstab.oracle.double_cosets_gl(n, m, q)
        dp = glstab.decompose_perm_module(n, m, q).sum_squares()
        if count != dp:
            raise SystemExit(f"oracle {count} != DP {dp} at (n,m,q)=({n},{m},{q})")
        ops.append({
            "id": f"double_cosets_gl({n},{m},{q})",
            "kind": "double_cosets_gl",
            "args": [n, m, q],
            "expect": count,
            "dp_sum_squares": dp,
        })
        sizes.append(round(vic_hom_count(m, n, q), -4))
    for ell, m, r, q in wl.WEAKSTAB:
        onto = glstab.oracle.weakstab_map_surjective(ell, m, r, q)
        ops.append({
            "id": f"weakstab_map_surjective({ell},{m},{r},{q})",
            "kind": "weakstab_map_surjective",
            "args": [ell, m, r, q],
            "expect": onto,
        })
        sizes.append(round(vic_hom_count(m, ell + r + 1, q), -4))
    out["oracle-orbits"] = _finish(ops, sizes)

    for name, spec in out.items():
        ids = [op["id"] for op in spec["ops"]]
        assert len(set(ids)) == len(ids), f"repeated instance in {name}"
        print(f"{name}: {len(ids)} ops, frontier {spec['largest'][:2]} "
              f"({len(spec['largest'])} ops)", file=sys.stderr)
    return out


def write(name, spec):
    """One operation per line, so a changed output shows as a one-line diff."""
    lines = [json.dumps(op, sort_keys=True, separators=(",", ":")) for op in spec["ops"]]
    with open(wl.reference_path(name), "w") as fh:
        fh.write('{"largest": %s,\n "ops": [\n' % json.dumps(spec["largest"]))
        fh.write(",\n".join(lines))
        fh.write("\n]}\n")


if __name__ == "__main__":
    wl.REFERENCE_DIR.mkdir(exist_ok=True)
    for name, spec in freeze().items():
        write(name, spec)
