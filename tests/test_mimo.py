"""Tests for zero-forcing precoding and antenna selection."""

import itertools

import numpy as np
import pytest

from rsmsim import mimo
from rsmsim.mimo import (
    SingularChannel,
    TooManySubsets,
    select_antennas,
    selection_for_indices,
    zf_precoder,
)


def random_channel(n_rx, n_tx, seed):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal((n_rx, n_tx)) + 1j * rng.standard_normal((n_rx, n_tx))) / np.sqrt(2)


def alpha_by_explicit_inverse(h_active):
    gram = h_active @ h_active.conj().T
    return 1.0 / float(np.real(np.trace(np.linalg.inv(gram))))


class TestZfPrecoder:
    def test_orthonormal_rows(self):
        h = np.hstack([np.eye(3), np.zeros((3, 5))])
        pre = zf_precoder(h)
        np.testing.assert_allclose(pre.matrix_b, h.conj().T, atol=1e-12)
        assert pre.alpha == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_scaling_law(self):
        c = 2.5
        h = c * np.hstack([np.eye(3), np.zeros((3, 5))])
        assert zf_precoder(h).alpha == pytest.approx(c * c / 3.0, rel=1e-12)

    def test_random_channel_inverts_and_normalizes(self):
        h = random_channel(2, 8, seed=0)
        pre = zf_precoder(h)
        np.testing.assert_allclose(h @ pre.matrix_b, np.eye(2), atol=1e-8)
        assert pre.alpha == pytest.approx(alpha_by_explicit_inverse(h), rel=1e-10)
        assert pre.alpha * np.real(np.trace(pre.matrix_b.conj().T @ pre.matrix_b)) == pytest.approx(
            1.0, abs=1e-8
        )

    def test_zero_interference_per_stream(self):
        # H_a B maps any spatial/modulation excitation straight through.
        h = random_channel(4, 16, seed=1)
        pre = zf_precoder(h)
        rng = np.random.default_rng(2)
        for _ in range(20):
            s = rng.integers(0, 2, size=4)
            x = rng.standard_normal() + 1j * rng.standard_normal()
            out = h @ (pre.matrix_b @ (s * x))
            np.testing.assert_allclose(out, s * x, atol=1e-8)

    def test_singular_raises(self):
        h = np.ones((2, 4), dtype=complex)  # duplicated rows
        with pytest.raises(SingularChannel):
            zf_precoder(h)


class TestSelectAntennas:
    def test_single_antenna_picks_largest_row(self):
        h = np.diag([1.0, 3.0, 2.0]).astype(complex)
        sel = select_antennas(h, 1)
        assert sel.active_indices == (1,)
        assert sel.alpha == pytest.approx(9.0, rel=1e-12)

    def test_matches_bruteforce_enumeration(self):
        h = random_channel(4, 8, seed=3)
        sel = select_antennas(h, 2)
        best = max(
            itertools.combinations(range(4), 2),
            key=lambda idx: alpha_by_explicit_inverse(h[list(idx)]),
        )
        assert sel.active_indices == best
        assert sel.alpha == pytest.approx(
            alpha_by_explicit_inverse(h[list(best)]), rel=1e-10
        )

    def test_full_subset_is_only_choice(self):
        h = random_channel(3, 8, seed=4)
        sel = select_antennas(h, 3)
        assert sel.active_indices == (0, 1, 2)
        assert sel.alpha == pytest.approx(alpha_by_explicit_inverse(h), rel=1e-10)

    def test_optimal_over_100_trials(self):
        for seed in range(100):
            h = random_channel(6, 12, seed=100 + seed)
            sel = select_antennas(h, 3)
            for idx in itertools.combinations(range(6), 3):
                assert sel.alpha >= alpha_by_explicit_inverse(h[list(idx)]) - 1e-9

    def test_alpha_scales_quadratically(self):
        h = random_channel(5, 10, seed=7)
        sel1 = select_antennas(h, 2)
        sel2 = select_antennas(3.0 * h, 2)
        assert sel2.active_indices == sel1.active_indices
        assert sel2.alpha == pytest.approx(9.0 * sel1.alpha, rel=1e-10)

    def test_subset_cap(self, monkeypatch):
        # C(14, 7) = 3432 subsets: under the default cap, over a cap of 1000.
        h = random_channel(14, 20, seed=8)
        monkeypatch.setattr(mimo, "MAX_SUBSETS", 1000)
        with pytest.raises(TooManySubsets):
            select_antennas(h, 7)

    def test_all_singular_raises(self):
        h = np.ones((4, 6), dtype=complex)
        with pytest.raises(SingularChannel):
            select_antennas(h, 2)

    def test_tie_breaks_lexicographic(self):
        # Two identical best singletons: index 0 must win.
        h = np.diag([2.0, 2.0, 1.0]).astype(complex)
        assert select_antennas(h, 1).active_indices == (0,)

    def test_selection_for_indices(self):
        h = random_channel(5, 10, seed=10)
        sel = selection_for_indices(h, (0, 1, 2))
        assert sel.active_indices == (0, 1, 2)
        assert sel.alpha == pytest.approx(alpha_by_explicit_inverse(h[:3]), rel=1e-10)

    @pytest.mark.parametrize("n_active", [1, 3, 4])
    def test_precoder_from_selection_reuses_its_gram_matrix(self, n_active, monkeypatch):
        # The selection's Gram matrix and alpha give the same bits as
        # factoring its rows again, without another eigendecomposition.
        h = random_channel(8, 32, seed=20 + n_active)
        for sel in (select_antennas(h, n_active), selection_for_indices(h, range(n_active))):
            again = zf_precoder(sel.h_active)
            monkeypatch.setattr(np.linalg, "eigvalsh", None)
            reused = zf_precoder(sel)
            monkeypatch.undo()
            assert reused.alpha == again.alpha == sel.alpha
            assert reused.matrix_b.tobytes() == again.matrix_b.tobytes()

    def test_n_active_exceeding_rows_rejected(self):
        with pytest.raises(ValueError):
            select_antennas(random_channel(2, 4, seed=11), 3)


class TestRcondRule:
    """One reciprocal-condition rule decides for every entry point."""

    def channel(self, rcond):
        # Orthogonal rows, so the Gram matrix of rows (0, 1) is diag(1, rcond)
        # up to rounding; row 2 is weaker, so (0, 1) is the best pair while it
        # counts as regular, (0, 2) never does and (1, 2) always does.
        h = np.zeros((3, 4), dtype=complex)
        h[0, 0], h[1, 1], h[2, 2] = 1.0, np.sqrt(rcond), np.sqrt(rcond / 2)
        return h

    def test_just_below_the_floor_is_singular_everywhere(self):
        rcond = 0.999 * mimo.RCOND_MIN
        h = self.channel(rcond)
        with pytest.raises(SingularChannel, match=r"rcond=9\.990e-13"):
            zf_precoder(h[:2])
        with pytest.raises(SingularChannel, match=r"rcond=9\.990e-13"):
            selection_for_indices(h, (0, 1))
        # Skipped although its power factor beats the pair it settles on.
        assert select_antennas(h, 2).active_indices == (1, 2)

    def test_just_above_the_floor_is_regular_everywhere(self):
        rcond = 1.001 * mimo.RCOND_MIN
        h = self.channel(rcond)
        alpha = 1.0 / (1.0 + 1.0 / rcond)
        assert zf_precoder(h[:2]).alpha == pytest.approx(alpha, rel=1e-9)
        assert selection_for_indices(h, (0, 1)).alpha == pytest.approx(alpha, rel=1e-9)
        sel = select_antennas(h, 2)
        assert sel.active_indices == (0, 1)
        assert sel.alpha == pytest.approx(alpha, rel=1e-9)
