"""The benchmark's workloads: inputs from a seed, the op as a user calls it,
the same op with spans around each public call, and an output check that does
not trust the route being timed.

Each workload gives one layer most of the work while another workload
bypasses that layer (NOTES.md has the predictions). Inputs are laid out in
balanced blocks of cost classes, so that the median and the tail percentile
sit inside one class instead of on the boundary between two.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
import random
import resource
import subprocess
import sys
import tempfile
from fractions import Fraction

import numpy as np

from hassewitt import cli
from hassewitt.cohomology import RATIONALS, REALS, BaseField, h1, hilbert_symbol
from hassewitt.forms import DiagonalForm, SymmetricForm, diagonalize, hasse_invariant
from hassewitt.gerbe import h2_census, main_example_report
from hassewitt.hasse_witt import hasse_witt_vector, top_obstruction
from hassewitt.localsolve import MAX_MODULUS, default_precision, represents_one
from hassewitt.rationals import Place, factor
from hassewitt.solvability import (
    DEFAULT_SEARCH_HEIGHT,
    SolvabilityCertificate,
    relevant_places,
    search_point,
    solvable_over_Q,
    solvable_over_Qp,
    solvable_over_R,
)

HEIGHT = DEFAULT_SEARCH_HEIGHT
FAMILY_SYMBOLS = (1, -1, 2, -2, 3, -3, 5, -5)
GOLDEN = (math.sqrt(5) - 1) / 2


class Workload:
    """One set of inputs and the op run on each of them."""

    # rough seconds per op, only used to size the input pool
    op_seconds = 0.01

    def inputs(self, seed: int):
        """Infinite input stream; the same seed gives the same stream."""
        raise NotImplementedError

    def run(self, x):
        raise NotImplementedError

    def run_traced(self, x, spans, op: int):
        """The op inside an "op" span whose children are its public calls,
        then lower-layer probes on the same inputs outside the op span."""
        raise NotImplementedError

    def check(self, x, out) -> str | None:
        """None when the output is right, else what is wrong with it."""
        raise NotImplementedError

    def keep(self, out):
        """What summary, counts and peak_rss_mb read from a checked output;
        the output itself is dropped after its check."""
        return None

    def summary(self, done: list) -> dict:
        """Diagnostics over the (input, kept output) pairs that passed the check."""
        return {}

    def counts(self, done: list) -> dict:
        """Per-layer counts read from the kept outputs."""
        return {}

    def peak_rss_mb(self, done: list) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# -- checks shared by several workloads ------------------------------------


def check_point(entries, point, height: int) -> str | None:
    """sum a_i x_i^2 = 1 exactly, with every numerator over the common
    denominator, and that denominator, at most `height`."""
    if len(point) != len(entries):
        return f"witness has {len(point)} coordinates for rank {len(entries)}"
    d = math.lcm(*(x.denominator for x in point))
    if d > height or any(abs(x.numerator) * (d // x.denominator) > height for x in point):
        return f"witness {[str(x) for x in point]} exceeds height {height}"
    if sum(a * x * x for a, x in zip(entries, point)) != 1:
        return f"witness {[str(x) for x in point]} does not satisfy the equation"
    return None


def oracle_can_confirm(p: int) -> bool:
    return p ** default_precision(p) <= MAX_MODULUS


def check_certificate(entries, verdict, witness, failing, cache=None) -> str | None:
    """A witness satisfies the equation; a refuting place is re-derived: the
    real place by signs, a prime by the residue oracle when p^k fits under its
    cap (larger primes count as unconfirmed, not as failures)."""
    if verdict:
        return None if witness is None else check_point(entries, witness, HEIGHT)
    if failing is None:
        return "false verdict without a failing place"
    if failing.is_real:
        return None if max(entries) < 0 else "refuted at inf but an entry is positive"
    if not oracle_can_confirm(failing.p):
        return None
    cache = {} if cache is None else cache
    key = (tuple(entries), failing.p)
    if key not in cache:
        cache[key] = represents_one(entries, failing.p)
    if cache[key]:
        return f"refuted at {failing.p} but the residue oracle finds a solution"
    return None


def check_diagonalization(gram, transform, diagonal) -> str | None:
    """A B A^T = diag(D) exactly."""
    n = len(gram)
    ab = [[sum(transform[i][k] * gram[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            entry = sum(ab[i][k] * transform[j][k] for k in range(n))
            if entry != (diagonal[i] if i == j else 0):
                return f"A B A^T differs from diag(D) at ({i}, {j})"
    return None


def random_gram(rng: random.Random, n: int) -> list[list[int]]:
    """Nonsingular symmetric n x n matrix with entries in {-1, 0, 1}."""
    while True:
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = rng.choice((-1, 0, 1))
        # |det| is far below 2^53, so the float determinant rounds exactly
        if round(np.linalg.det(np.array(rows, dtype=float))) != 0:
            return rows


def place_kind(v: Place) -> str:
    return "real" if v.is_real else "dyadic" if v.p == 2 else "odd"


def factor_probe(entries, spans, op: int) -> None:
    for a in entries:
        for part in (a.numerator, a.denominator):
            with spans.span("rationals.factor", op):
                factor(part)


def local_probe(form: DiagonalForm, places, spans, op: int) -> None:
    """Hilbert symbols on the extended form's entry pairs, and its Hasse
    invariant, at each place: the symbols the closed-form local test uses."""
    extended = DiagonalForm(form.entries + (Fraction(-1),))
    pairs = list(itertools.combinations(extended.entries, 2))
    for v in places:
        with spans.span(f"cohomology.hilbert_symbol.{place_kind(v)}", op, calls=len(pairs)):
            for a, b in pairs:
                hilbert_symbol(a, b, v)
        if not v.is_real:
            with spans.span("forms.hasse_invariant", op):
                hasse_invariant(extended, v)


# -- family and certify: solvable_over_Q ------------------------------------


class Certificates(Workload):
    """Forms through solvable_over_Q at the default search height."""

    def __init__(self) -> None:
        self._oracle: dict = {}

    def run(self, form):
        return solvable_over_Q(form, search_height=HEIGHT)

    def run_traced(self, form, spans, op):
        # solvable_over_Q's documented composition, one span per public call
        with spans.span("op", op):
            cert = self._compose(form, spans, op)
        factor_probe(form.entries, spans, op)
        local_probe(form, cert.checked_places, spans, op)
        return cert

    @staticmethod
    def _compose(form, spans, op):
        with spans.span("solvability.relevant_places", op):
            places = relevant_places(form)
        checked = []
        for v in places:
            checked.append(v)
            if v.is_real:
                with spans.span("solvability.solvable_over_R", op):
                    ok = solvable_over_R(form)
            else:
                with spans.span("solvability.solvable_over_Qp", op):
                    ok = solvable_over_Qp(form, v.p)
            if not ok:
                return SolvabilityCertificate(False, None, v, tuple(checked))
        with spans.span("solvability.search_point", op):
            witness = search_point(form, HEIGHT)
        return SolvabilityCertificate(True, witness, None, tuple(checked))

    def check(self, form, cert):
        return check_certificate(
            form.entries, cert.verdict, cert.witness, cert.failing_place, self._oracle
        )

    def keep(self, cert):
        # verdict, the witness's denominator (None without a witness), failing place
        denominator = None if cert.witness is None else math.lcm(*(x.denominator for x in cert.witness))
        return cert.verdict, denominator, cert.failing_place

    def summary(self, done):
        true = [k for _, k in done if k[0]]
        false = [k for _, k in done if not k[0]]
        witnessed = sum(d is not None for _, d, _ in true)
        return {
            "true_verdicts": len(true),
            "witnessed": witnessed,
            "witness_frac": witnessed / len(true) if true else None,
            "false_verdicts": len(false),
            "false_unconfirmed": sum(
                not place.is_real and not oracle_can_confirm(place.p) for _, _, place in false
            ),
        }

    def counts(self, done):
        searched = [k for _, k in done if k[0]]
        return {
            "solvability.search_point.witnesses": sum(d is not None for _, d, _ in searched),
            "solvability.search_point.denominators": sum(
                HEIGHT if d is None else d for _, d, _ in searched
            ),
        }


class Family(Certificates):
    op_seconds = 0.002

    def inputs(self, seed):
        # fixed; the seed is ignored. A fixed shuffle makes every prefix a
        # fair sample of the family, since a run may stop mid-pass.
        forms = [
            DiagonalForm.of(*entries)
            for rank in (1, 2, 3, 4)
            for entries in itertools.product(FAMILY_SYMBOLS, repeat=rank)
        ]
        random.Random(4680).shuffle(forms)
        return itertools.cycle(forms)


def primes_between(lo: int, hi: int) -> list[int]:
    sieve = np.ones(hi, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(hi - 1) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return [int(p) for p in np.flatnonzero(sieve[lo:]) + lo]


class Certify(Certificates):
    op_seconds = 0.07
    SQUAREFREE = (1, 2, 3, 5, 6, 7)

    def inputs(self, seed):
        # An entry costs trial division up to its smaller prime. That prime's
        # quantile follows a golden-ratio sequence from a seeded start, so
        # every run gets the same spread of costs whatever the seed; the
        # pair (q1, q2) keeps the law of two independent uniform primes.
        rng = random.Random(seed)
        primes = primes_between(10**4, 10**6)
        quantile = rng.random()
        for i in itertools.count():
            entries = []
            for _ in range(2 + i % 3):
                quantile = (quantile + GOLDEN) % 1.0
                small = 1 - math.sqrt(1 - quantile)  # the minimum of two uniforms
                large = small + (1 - small) * rng.random()
                q1, q2 = (primes[int(u * len(primes))] for u in (small, large))
                entries.append(rng.choice((1, -1)) * rng.choice(self.SQUAREFREE) * q1 * q2)
            yield DiagonalForm.of(*entries)


# -- oracle: closed form against the residue oracle --------------------------


class Oracle(Workload):
    op_seconds = 0.02
    PRIMES = (2, 3, 5, 7, 11, 13)

    def inputs(self, seed):
        # blocks of all 24 (prime, rank) classes, so every prime gets the
        # same share of ops and the tail falls inside the p = 13 classes
        rng = random.Random(seed)
        classes = [(p, r) for p in self.PRIMES for r in (1, 2, 3, 4)]
        while True:
            block = classes[:]
            rng.shuffle(block)
            for p, rank in block:
                entries = [rng.choice((1, -1)) * rng.randint(1, 30) for _ in range(rank)]
                entries[rng.randrange(rank)] *= p
                yield DiagonalForm.of(*entries), p

    def run(self, x):
        form, p = x
        return solvable_over_Qp(form, p), represents_one(form.entries, p)

    def run_traced(self, x, spans, op):
        form, p = x
        with spans.span("op", op):
            with spans.span("solvability.solvable_over_Qp", op):
                closed = solvable_over_Qp(form, p)
            # local_oracle(form, p) is exactly this call
            with spans.span(f"localsolve.represents_one.p{p}", op):
                residue = represents_one(form.entries, p)
        local_probe(form, [Place.finite(p)], spans, op)
        return closed, residue

    def check(self, x, out):
        closed, residue = out
        if closed != residue:
            return f"at p={x[1]} the closed form says {closed}, the residue oracle {residue}"
        return None


# -- invariants: diagonalize, Hasse-Witt vectors, top obstruction -------------


class Invariants(Workload):
    op_seconds = 0.25
    FIELDS = (RATIONALS, REALS, BaseField.padics(2), BaseField.padics(3))
    # three of eleven ops at size 10 and three at size 12: the median lands
    # inside the size-10 class and the tail, with 10 samples beyond it,
    # inside the size-12 class. A fixed interleaved order keeps a run that
    # stops mid-cycle balanced.
    SIZES = (12, 6, 10, 12, 7, 10, 9, 12, 8, 10, 11)

    def inputs(self, seed):
        rng = random.Random(seed)
        for n in itertools.cycle(self.SIZES):
            yield SymmetricForm.from_rows(random_gram(rng, n))

    def run(self, gram):
        transform, diagonal = diagonalize(gram)
        vectors = [hasse_witt_vector(diagonal, f) for f in self.FIELDS]
        tops = [top_obstruction(diagonal, f) for f in self.FIELDS]
        return transform, diagonal, vectors, tops

    def run_traced(self, gram, spans, op):
        with spans.span("op", op):
            out = self._compose(gram, spans, op)
        self._probe(out[1], spans, op)
        return out

    def layers(self, gram, spans, op: int) -> None:
        """The op's public calls and probes, without an op span around them."""
        self._probe(self._compose(gram, spans, op)[1], spans, op)

    def _compose(self, gram, spans, op):
        with spans.span("forms.diagonalize", op):
            transform, diagonal = diagonalize(gram)
        vectors, tops = [], []
        for f in self.FIELDS:
            with spans.span(f"hasse_witt.hasse_witt_vector.{f.kind}", op):
                vectors.append(hasse_witt_vector(diagonal, f))
        for f in self.FIELDS:
            with spans.span("hasse_witt.top_obstruction", op):
                tops.append(top_obstruction(diagonal, f))
        return transform, diagonal, vectors, tops

    def _probe(self, diagonal, spans, op) -> None:
        factor_probe(diagonal.entries, spans, op)
        for f in self.FIELDS:
            with spans.span(f"cohomology.h1.{f.kind}", op, calls=diagonal.rank):
                for a in diagonal.entries:
                    h1(a, f)

    def check(self, gram, out):
        transform, diagonal, vectors, tops = out
        bad = check_diagonalization(gram.gram, transform, diagonal.entries)
        if bad:
            return bad
        n = diagonal.rank
        for f, vector, top in zip(self.FIELDS, vectors, tops):
            if len(vector) != n or vector[n] != top:
                return f"over {f} HW_{n} differs from the top obstruction"
            if f.kind == "Qp":
                eps = hasse_invariant(diagonal, Place.finite(f.p))
                if vector[2].payload != (1 if eps == -1 else 0):
                    return f"over {f} HW_2 disagrees with the Hasse invariant"
        return None


# -- cli-cold: one fresh interpreter per call ---------------------------------


class CliCold(Workload):
    op_seconds = 0.3
    # gerbe-verify is the slowest call; four of eleven put the tail inside
    # it. A fixed interleaved order keeps a run that stops mid-cycle balanced.
    MIX = (
        "gerbe-verify", "solvable", "hw", "gerbe-verify", "obstruct", "search",
        "gerbe-verify", "hilbert", "diag", "gerbe-verify", "h2-census",
    )

    def __init__(self, root) -> None:
        self.root = root
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.tmp = root / "bench" / "runs"
        self._reference: dict = {}

    def inputs(self, seed):
        rng = random.Random(seed)
        for sub in itertools.cycle(self.MIX):
            yield (sub,) + self._args(sub, rng)

    @staticmethod
    def _form(rng, rank, symbols=(1, -1, 2, -2, 3, -3, 5, -5, 6, -6, 7, -7)):
        return json.dumps([rng.choice(symbols) for _ in range(rank)])

    def _args(self, sub, rng) -> tuple:
        if sub == "solvable":
            return ("--form", self._form(rng, 3))
        if sub == "hw":
            return ("--form", self._form(rng, 6), "--field", "Q")
        if sub == "obstruct":
            return ("--form", self._form(rng, 4), "--field", "Qp:3")
        if sub == "search":
            return ("--form", self._form(rng, 3), "--height", "30")
        if sub == "hilbert":
            a, b = (rng.choice([k for k in range(-30, 31) if k]) for _ in range(2))
            return ("-a", str(a), "-b", str(b), "--place", "2")
        if sub == "diag":
            return ("--matrix", json.dumps(random_gram(rng, 4)))
        return ()

    def run(self, argv):
        self.tmp.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryFile(dir=self.tmp) as out, tempfile.TemporaryFile(dir=self.tmp) as err:
            proc = subprocess.Popen(
                [sys.executable, "-m", "hassewitt.cli", *argv],
                stdout=out, stderr=err, env=self.env, cwd=self.root,
            )
            # wait4 rather than wait: it hands back this child's own peak RSS
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            return proc.returncode, out.read().decode(), err.read().decode(), usage.ru_maxrss

    def run_traced(self, argv, spans, op):
        with spans.span("op", op):
            result = self.run(argv)
        self.warm_probe(argv, spans, op)
        return result

    def warm_probe(self, argv, spans, op: int) -> None:
        """The same call warm in this process, then the gerbe function behind it."""
        with spans.span(f"cli.main.{argv[0]}", op):
            self.in_process(argv)
        if argv[0] == "gerbe-verify":
            with spans.span("gerbe.main_example_report", op):
                main_example_report()
        if argv[0] == "h2-census":
            with spans.span("gerbe.h2_census", op):
                h2_census()

    def one_call_each(self) -> list[tuple]:
        """One seeded argument list per subcommand."""
        first = {}
        for argv in itertools.islice(self.inputs(0), len(self.MIX)):
            first.setdefault(argv[0], argv)
        return list(first.values())

    @staticmethod
    def in_process(argv) -> tuple[int, str]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(argv))
        return code, buf.getvalue()

    def check(self, argv, out):
        code, stdout, stderr, _ = out
        if code != 0:
            return f"exit code {code}: {stderr.strip()[-200:]}"
        try:
            doc = json.loads(stdout)
        except json.JSONDecodeError:
            return f"stdout is not one JSON document: {stdout[:200]!r}"
        if argv not in self._reference:
            self._reference[argv] = self.in_process(argv)
        ref_code, ref_out = self._reference[argv]
        if ref_code != 0 or json.loads(ref_out) != doc:
            return "cold output differs from the in-process output"
        return self._check_doc(argv, doc)

    @staticmethod
    def _check_doc(argv, doc) -> str | None:
        sub, opts = argv[0], dict(zip(argv[1::2], argv[2::2]))
        form = json.loads(opts.get("--form", "[]"))
        if sub == "solvable":
            witness = doc["witness"]
            failing = doc["failing_place"]
            return check_certificate(
                [Fraction(a) for a in form],
                doc["solvable"],
                None if witness is None else tuple(Fraction(x) for x in witness),
                None if failing is None else Place.parse(failing),
            )
        if sub == "search":
            point = doc["point"]
            if point is None:
                return None
            return check_point(form, tuple(Fraction(x) for x in point), int(opts["--height"]))
        if sub == "diag":
            return check_diagonalization(
                [[Fraction(x) for x in row] for row in json.loads(opts["--matrix"])],
                [[Fraction(x) for x in row] for row in doc["transform"]],
                [Fraction(x) for x in doc["diagonal"]],
            )
        if sub == "hw":
            ok = len(doc["hw"]) == len(form) and doc["hw"][-1] == doc["top_obstruction"]
            return None if ok else "HW_n differs from the top obstruction"
        if sub == "obstruct":
            return None if doc["degree"] == len(form) else "obstruction degree is not the rank"
        if sub == "hilbert":
            return None if doc["symbol"] in (1, -1) else "symbol is not +-1"
        if sub == "gerbe-verify":
            return None if doc["verified"] is True else "descent example not verified"
        return None

    def keep(self, out):
        return out[3]  # the child's peak RSS in KiB

    def peak_rss_mb(self, done):
        return max((kib for _, kib in done), default=0) / 1024


def get(name: str, root) -> Workload:
    if name == "cli-cold":
        return CliCold(root)
    return {"family": Family, "certify": Certify, "oracle": Oracle, "invariants": Invariants}[name]()

