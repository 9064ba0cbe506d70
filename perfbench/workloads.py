"""The benchmark's workloads: seeded inputs, the timed item, and its checks.

Each workload builds its inputs from the seed alone during set-up: the list
of items that one pass runs.  ``run`` is the timed call into twistcalc;
``check`` verifies its output by a route that does not reuse the timed code
path and returns one boolean per check, all False when the item raised.

``tc`` maps short module names to freshly imported twistcalc modules (see
run.py); nothing here imports twistcalc itself, so a run only ever uses the
copy under the checkout's ``src``.
"""

from __future__ import annotations

import io
import os
import random
from contextlib import redirect_stderr, redirect_stdout

TRUNC = 5

VERIFY_PSI_CHECKS = (
    "tau2_psi_vanishes",
    "tau3_matches_tree_sum",
    "tau3_matches_compact_form",
    "bracket_decomposition",
    "three_tau2_odot_identity",
    "lemma_odot_decomposition",
    "casson_numbers",
)
CASSON_LINES = ("d -24", "d_prime 0", "n_genus1 10", "n_genus2 -3", "lambda 1")


class State:
    """What set-up hands to the timed passes."""

    def __init__(self, inputs, items, **extra):
        self.inputs = inputs  # the text the input hash is taken over
        self.items = items
        self.__dict__.update(extra)


def homology(bc, g):
    """Homology coordinates of a barcode, decoded here rather than by twistcalc."""
    coords = [0] * (2 * g)
    for k in bc:
        m = abs(k)
        idx = (m + 1) // 2 if m % 2 else g + m // 2
        coords[idx - 1] += 1 if k > 0 else -1
    return coords


def _cyclically_reduced(bc):
    return all(bc[i] != -bc[i - 1] for i in range(len(bc)))


def run_cli(tc, argv):
    """twistcalc's main() in-process; returns (exit code, stdout)."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        try:
            code = tc["cli"].main(argv)
        except SystemExit as e:
            code = e.code
    return code, out.getvalue()


class PsiCli:
    """The paper reproduction through the CLI: verify-psi, tau --level 3, casson.

    The seed shuffles the twist lines of the exported file, which changes
    neither the work done nor any output.
    """

    name = "psi-cli"
    genus = 2

    def setup(self, tc, seed, workdir, tiny):
        path = workdir / ("psi-%d.txt" % os.getpid())
        code, _ = run_cli(tc, ["export-psi", "--out", str(path)])
        if code != 0:
            raise RuntimeError("export-psi exited with %r" % code)
        lines = path.read_text(encoding="utf-8").splitlines()
        body = [line for line in lines if not line.startswith("#")]
        random.Random(seed).shuffle(body)
        text = "\n".join([line for line in lines if line.startswith("#")] + body) + "\n"
        path.write_text(text, encoding="utf-8")
        commands = [
            ["verify-psi"],
            ["tau", "--level", "3", "--file", str(path)],
            ["casson", "--file", str(path)],
        ]
        return State(text, commands, path=path)

    def run(self, tc, exp, state, item):
        return run_cli(tc, item)

    def check(self, tc, state, item, output):
        command = item[0]
        if command == "verify-psi":
            if output is None:
                return [False] * len(VERIFY_PSI_CHECKS)
            passed = {
                fields[0]
                for fields in (line.split() for line in output[1].splitlines())
                if fields[-1:] == ["PASS"]
            }
            return [name in passed for name in VERIFY_PSI_CHECKS]
        if command == "tau":
            tau3 = tc["diagrams"].eta(tc["psi_data"].expected_tau3(), TRUNC)
            expected = tc["tensor"].render(tau3)
            return [output == (0, expected + "\n")]
        if output is None:
            return [False] * len(CASSON_LINES)
        lines = output[1].splitlines()
        return [output[0] == 0 and line in lines for line in CASSON_LINES]


class SweepG3:
    """Many small L_4 calls at genus 3, in the style of acceptance criterion 10d.

    An item is a product of 1 to 3 commutators [u_i, v_i] of one-letter words,
    a distinct barcode each; it computes L_4 of the barcode and of a rotation
    of it (a conjugate).
    """

    name = "sweep-g3"
    genus = 3
    # The handles (of u_i, v_i) of each commutator.  The seed picks alpha or
    # beta and the sign of every letter, and the rotation.  Fixing the handles
    # fixes much of an item's cost; whether a letter is alpha or beta moves
    # it too, so each item comes with its twin, alpha and beta swapped.  Most
    # items have two commutators, so the median item is one of them.  This
    # keeps the work, and the median item, nearly equal for every seed.
    ONE = (((1, 2),), ((2, 3),), ((3, 1),), ((1, 3),))
    TWO = (
        ((1, 2), (3, 1)),
        ((2, 3), (1, 2)),
        ((3, 1), (2, 3)),
        ((1, 3), (2, 1)),
        ((2, 1), (3, 2)),
        ((3, 2), (1, 3)),
        ((1, 2), (2, 3)),
        ((2, 1), (1, 3)),
    )
    THREE = (((1, 2), (2, 3), (3, 1)), ((1, 3), (3, 2), (2, 1)))
    SHAPES = ONE + 2 * TWO + THREE

    def _twins(self, rng, shape, seen):
        """Two new items with the handles of ``shape``, alpha and beta swapped."""
        betas = [(rng.randrange(2), rng.randrange(2)) for _ in shape]
        twins = []
        for swap in (0, 1):
            while True:
                pairs = [
                    tuple(((2 * h - 1 + (b ^ swap)) * rng.choice((1, -1)),) for h, b in zip(hs, bs))
                    for hs, bs in zip(shape, betas)
                ]
                bc = ()
                for (u,), (v,) in pairs:
                    bc += (u, v, -u, -v)
                if _cyclically_reduced(bc) and bc not in seen:
                    seen.add(bc)
                    twins.append((bc, pairs, rng.randrange(1, len(bc))))
                    break
        return twins

    def setup(self, tc, seed, workdir, tiny):
        rng = random.Random(seed)
        seen = set()
        shapes = self.SHAPES[:1] if tiny else self.SHAPES
        items = [item for shape in shapes for item in self._twins(rng, shape, seen)]
        return State(repr(items), items)

    def run(self, tc, exp, state, item):
        L_k = tc["johnson"].L_k
        bc, _, rot = item
        return L_k(exp, bc, 4), L_k(exp, bc[rot:] + bc[:rot], 4)

    def check(self, tc, state, item, output):
        """L_4 = eta(sum u_i . v_i + sum_{i<j} T(u_i, v_i, u_j, v_j)), rotation-invariant."""
        if output is None:
            return [False, False]
        D, HVector = tc["diagrams"], tc["surface"].HVector
        classes = [
            (HVector(homology(u, self.genus)), HVector(homology(v, self.genus)))
            for u, v in item[1]
        ]
        expected = D.DiagramSum()
        for i, (u, v) in enumerate(classes):
            expected = expected + D.odot(u, v)
            for w, x in classes[i + 1 :]:
                expected = expected + D.tree(u, v, w, x)
        l4, l4_rotated = output
        return [l4 == D.eta(expected, TRUNC, self.genus), l4_rotated == l4]


class LieAudit:
    """Lie-ness audit of log theta at full degree 5, genus 2.

    An item computes l = log theta(bc), its Dynkin defect and exp(l).  The
    defect must vanish, exp(l) must give theta back, and the degree-1 part of
    l must be the homology class of the barcode.
    """

    name = "lie-audit"
    genus = 2
    # Handles of the letters of each word; the seed picks alpha or beta and
    # the sign, with adjacent letters on different generators.  As in
    # SweepG3, fixed handles keep the work nearly the same for every seed.
    # Each TWINNED shape gives a word and its twin, alpha and beta swapped,
    # so the seed's choices of alpha or beta move the work less.  The six
    # two-letter twins sit in the middle of the cost order, so the median
    # item is the mean of two of them.
    SHAPES = ((1,), (2,), (1, 1), (2, 2))
    TWINNED = ((1, 2), (2, 1), (1, 2), (1, 1, 2), (2, 2, 1))

    def _words(self, rng, shape, seen, twin):
        while True:
            bc = tuple(rng.choice((2 * h - 1, 2 * h)) * rng.choice((1, -1)) for h in shape)
            words = [bc]
            if twin:
                words.append(tuple(k + 1 if k % 2 else k - 1 for k in map(abs, bc)))
                words[1] = tuple(k if a > 0 else -k for k, a in zip(words[1], bc))
            if all(abs(a) != abs(b) for a, b in zip(bc, bc[1:])) and not seen.intersection(words):
                seen.update(words)
                return words

    def setup(self, tc, seed, workdir, tiny):
        rng = random.Random(seed)
        seen = set()
        shapes = [(s, False) for s in self.SHAPES] + [(s, True) for s in self.TWINNED]
        items = [w for s, twin in (shapes[:2] if tiny else shapes) for w in self._words(rng, s, seen, twin)]
        return State(repr(items), items)

    def run(self, tc, exp, state, bc):
        T = tc["tensor"]
        th = tc["expansion"].theta(exp, bc)
        l = T.log_series(th)
        return l, T.dynkin_defect(l).is_zero(), T.exp_series(l) == th

    def check(self, tc, state, bc, output):
        if output is None:
            return [False, False, False]
        l, lie, round_trip = output
        degree1 = {w[0]: c for w, c in l.terms.items() if len(w) == 1}
        coords = homology(bc, self.genus)
        expected = {i + 1: c for i, c in enumerate(coords) if c}
        return [lie, round_trip, degree1 == expected]


WORKLOADS = {w.name: w for w in (PsiCli(), SweepG3(), LieAudit())}
