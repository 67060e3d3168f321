"""Write the golden verdicts under bench/golden/ from the current program.

Run once, at a commit whose answers are trusted, from the repository root:

    python3 bench/make_golden.py

It also stores the check-stream candidate list (pair, X, signature), so
that a later change to enumeration cannot change that workload's inputs.
Takes about three minutes.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from branchdec.catalog import load_catalog  # noqa: E402
from branchdec.parabolic import enumerate_parabolics  # noqa: E402
from branchdec.root_core import build_root_datum  # noqa: E402

from workloads import (  # noqa: E402
    CLASSIFY_COLUMNS,
    CLASSIFY_EXTRA_PAIRS,
    ENUMERATE_ALGEBRA,
    GOLDEN_DIR,
    format_x,
    run_cli,
    signature_string,
)


def verdicts(pair: str, x: str) -> dict[str, list]:
    """[exit code, answer] for each question, from single check commands."""
    out = {}
    for question in CLASSIFY_COLUMNS:
        rc, stdout, _, _ = run_cli(["check", "--pair", pair, f"--X={x}",
                                 "--question", question, "--format", "json"])
        if rc not in (0, 3):
            raise SystemExit(f"check {pair} {x} {question}: exit {rc}")
        out[question] = [rc, json.loads(stdout)["answer"] if rc == 0 else None]
    return out


def classify_and_check_golden(cat) -> tuple[dict, dict]:
    """classify-sweep rows come from check commands, a separate path."""
    classify, candidates = {}, []
    for pair in [*cat.pair_ids(), *CLASSIFY_EXTRA_PAIRS]:
        rows = {}
        for q in enumerate_parabolics(cat.pair(pair).base, dominant_only=True):
            x, sig = format_x(q.x), signature_string(q.signature)
            golden = verdicts(pair, x)
            cells = ["unsupported" if rc == 3 else str(answer).lower()
                     for rc, answer in golden.values()]
            rows[sig] = [q.dim_levi, q.dim_u, *cells]
            if pair in cat.stored_pairs:
                candidates.append({"pair": pair, "x": x, "signature": sig,
                                   "golden": golden})
        classify[pair] = rows
    return classify, {"candidates": candidates}


def enumerate_golden() -> dict:
    datum = build_root_datum(ENUMERATE_ALGEBRA)
    out = {"algebra": ENUMERATE_ALGEBRA}
    for mode in ("all", "dominant"):
        faces = enumerate_parabolics(datum, dominant_only=mode == "dominant")
        out[mode] = sorted(signature_string(q.signature) for q in faces)
    return out


def main() -> None:
    cat = load_catalog()
    GOLDEN_DIR.mkdir(exist_ok=True)
    classify, check = classify_and_check_golden(cat)
    for name, data in (("classify_sweep", classify),
                       ("check_stream", check),
                       ("enumerate_rank4", enumerate_golden())):
        path = GOLDEN_DIR / f"{name}.json"
        path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
