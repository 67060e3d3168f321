"""The three benchmark workloads, their seeded inputs and golden checks.

Each workload turns ``--seed`` into inputs, runs one pass through the
package's public entry points (``branchdec.cli.main`` and
``enumerate_parabolics``, looked up at call time so that a tracer can
wrap them), and checks every answer against the golden verdicts stored
next to this file.  Each call into the program records when it started
and ended; golden checks run after the pass.

Golden verdicts are keyed on what the paper fixes: the face signature of
a parabolic (its sign on every weight), its dimensions and the yes/no
answers.  They are never keyed on witnesses or on the X that represents
a face, so a new enumerator or a new witness format is not a failure.
"""

from __future__ import annotations

import io
import json
import random
import time
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

from branchdec import cli, parabolic
from branchdec.catalog import load_catalog
from branchdec.root_core import build_root_datum, parse_vector

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

CLASSIFY_COLUMNS = ("deco", "admissible", "transitive", "rho", "symtype",
                    "virtsym")

# the stored pairs plus one pair from each synthesised family
CLASSIFY_EXTRA_PAIRS = ("theta:so(4,3)", "theta:su(2,2)", "swap:su(1,1)^2")

ENUMERATE_ALGEBRA = "su(3,2)"

# check-stream asks every question about every dominant parabolic of a
# pair that has at most CHECK_WHOLE of them, and about CHECK_DRAWN drawn
# ones of a larger pair.  Whole pairs include (sl(4,C),sp(2,C)), whose
# virtsym calls range from 0.1 s to 3 s, so the work in a pass does not
# swing with the seed; a pass is 240 commands.
CHECK_WHOLE = 8
CHECK_DRAWN = 4
CHECK_MAX_SCALE = 9


def signature_string(signature) -> str:
    """A face signature (one sign per weight entry) as '-', '0', '+'."""
    return "".join("-0+"[s + 1] for s in signature)


def format_x(x) -> str:
    return ",".join(str(c) for c in x)


def load_golden(name: str) -> dict:
    return json.loads((GOLDEN_DIR / f"{name}.json").read_text())


@dataclass
class PassResult:
    op_times: list[tuple[float, float]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    stdout_bytes: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> int:
        return self.attempted - self.failed

    def count(self, attempted: int, failed: int, what: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.failures.append(f"{what}: {failed} of {attempted} wrong")


def compare_rows(golden: dict[str, list], got: list[tuple[str, list]]):
    """Compare keyed rows with the golden ones; return (attempted, failed).

    A golden row that is missing or differs is one failure; a row that
    is not golden, or repeats a key, is one more attempted and failed.
    """
    seen: set[str] = set()
    failed = extra = 0
    for key, values in got:
        if key not in golden or key in seen:
            extra += 1
            continue
        seen.add(key)
        if values != golden[key]:
            failed += 1
    missing = len(golden) - len(seen)
    return len(golden) + extra, failed + missing + extra


def compare_multiset(golden: list[str], got: list[str]):
    """Like ``compare_rows`` for plain keys that may repeat."""
    want, have = Counter(golden), Counter(got)
    missing = sum((want - have).values())
    extra = sum((have - want).values())
    return len(golden) + extra, missing + extra


def check_verdict(expected: list, rc, stdout: str) -> bool:
    """``expected`` is [exit code, answer]; the answer is None on exit 3."""
    want_rc, want_answer = expected
    if rc != want_rc:
        return False
    if rc != 0:
        return True
    try:
        return json.loads(stdout)["answer"] == want_answer
    except (ValueError, KeyError, TypeError):
        return False


def run_cli(argv: list[str]):
    """One ``cli.main`` call: (exit code or error text, stdout, start, end)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.main(argv)
    except (Exception, SystemExit) as exc:
        rc = f"raised {type(exc).__name__}: {exc}"
    return rc, out.getvalue(), t0, time.perf_counter()


def _noop(op: int) -> None:
    pass


class ClassifySweep:
    """``classify`` for every stored pair and three synthesised ones.

    One operation is one table row: a dominant parabolic answered for all
    six questions.  The seed orders the commands.
    """

    name = "classify-sweep"
    unit = "rows"

    def __init__(self, seed: int):
        self.golden = load_golden("classify_sweep")
        self.pairs = sorted(self.golden)
        random.Random(seed).shuffle(self.pairs)
        cat = load_catalog()
        self.bases = {p: cat.pair(p).base for p in self.pairs}

    def run(self, mark=_noop):
        raw = []
        for i, pair in enumerate(self.pairs):
            mark(i)
            raw.append((pair, *run_cli(["classify", "--pair", pair])))
        return raw

    def check(self, raw) -> PassResult:
        res = PassResult()
        for pair, rc, stdout, t0, t1 in raw:
            res.op_times.append((t0, t1))
            res.stdout_bytes += len(stdout.encode())
            golden = self.golden[pair]
            if rc != 0:
                res.count(len(golden), len(golden), f"{pair} exit {rc}")
                continue
            try:
                got = self._rows(pair, stdout)
            except ValueError as exc:
                res.count(len(golden), len(golden), f"{pair}: {exc}")
                continue
            res.count(*compare_rows(golden, got), pair)
        return res

    def _rows(self, pair: str, stdout: str) -> list[tuple[str, list]]:
        """(face signature recomputed from X, [dims, six cells]) per row."""
        got = []
        for line in stdout.splitlines()[1:]:
            x, dim_levi, dim_u, *cells = line.split("\t")
            q = parabolic.build_parabolic(self.bases[pair], parse_vector(x))
            got.append((signature_string(q.signature),
                        [int(dim_levi), int(dim_u), *cells]))
        return got


class EnumerateRank4:
    """All faces of su(3,2), then the dominant ones.

    One operation is one face.  The seed orders the two calls.
    """

    name = "enumerate-rank4"
    unit = "faces"

    def __init__(self, seed: int):
        self.golden = load_golden("enumerate_rank4")
        self.datum = build_root_datum(self.golden["algebra"])
        self.modes = ["all", "dominant"]
        random.Random(seed).shuffle(self.modes)

    def run(self, mark=_noop):
        raw = []
        for i, mode in enumerate(self.modes):
            mark(i)
            t0 = time.perf_counter()
            try:
                faces = parabolic.enumerate_parabolics(
                    self.datum, dominant_only=mode == "dominant")
            except Exception as exc:
                faces = f"raised {type(exc).__name__}: {exc}"
            raw.append((mode, faces, t0, time.perf_counter()))
        return raw

    def check(self, raw) -> PassResult:
        res = PassResult()
        for mode, faces, t0, t1 in raw:
            res.op_times.append((t0, t1))
            golden = self.golden[mode]
            if isinstance(faces, str):
                res.count(len(golden), len(golden), f"{mode}: {faces}")
                continue
            got = [signature_string(q.signature) for q in faces]
            res.count(*compare_multiset(golden, got), mode)
        return res


class CheckStream:
    """Single ``check`` commands, each paying its own catalog load.

    Per (stored pair, question) the seed draws dominant parabolics from
    the stored candidate list (see ``CHECK_WHOLE``), scales each X by a
    random positive integer (verdicts are scale-invariant) and shuffles
    the stream.  One operation is one command.
    """

    name = "check-stream"
    unit = "commands"

    def __init__(self, seed: int):
        golden = load_golden("check_stream")
        rng = random.Random(seed)
        by_pair: dict[str, list[dict]] = {}
        for cand in golden["candidates"]:
            by_pair.setdefault(cand["pair"], []).append(cand)
        self.stream = []
        for pair in sorted(by_pair):
            cands = by_pair[pair]
            k = len(cands) if len(cands) <= CHECK_WHOLE else CHECK_DRAWN
            for question in CLASSIFY_COLUMNS:
                for cand in rng.sample(cands, k):
                    scale = rng.randint(1, CHECK_MAX_SCALE)
                    x = format_x(scale * c for c in parse_vector(cand["x"]))
                    # X goes in as --X=<vec>: argparse reads a separate
                    # value that starts with '-' (such as -1,-1,-1,3) as
                    # an option and rejects "--X -1,-1,-1,3"
                    argv = ["check", "--pair", pair, f"--X={x}",
                            "--question", question, "--format", "json"]
                    self.stream.append((argv, cand["golden"][question]))
        rng.shuffle(self.stream)

    def run(self, mark=_noop):
        raw = []
        for i, (argv, _) in enumerate(self.stream):
            mark(i)
            raw.append(run_cli(argv))
        return raw

    def check(self, raw) -> PassResult:
        res = PassResult()
        for (argv, expected), (rc, stdout, t0, t1) in zip(self.stream, raw):
            res.op_times.append((t0, t1))
            res.stdout_bytes += len(stdout.encode())
            ok = check_verdict(expected, rc, stdout)
            res.count(1, 0 if ok else 1, " ".join(argv[2:6]))
        return res


WORKLOADS = {w.name: w for w in (ClassifySweep, EnumerateRank4, CheckStream)}
