import numpy as np

from stabcorrect import kernels


def normalized(rng, n):
    v = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return v / np.linalg.norm(v)


class TestWht:
    def test_matches_matrix(self, rng):
        for n in (1, 2, 3, 4):
            m = 1 << n
            had = np.array(
                [[(-1) ** bin(i & j).count("1") for j in range(m)] for i in range(m)],
                dtype=float,
            )
            v = rng.normal(size=m)
            got = kernels.wht_inplace(v.copy())
            assert np.allclose(got, had @ v)

    def test_involution_up_to_size(self, rng):
        v = rng.normal(size=64)
        w = kernels.wht_inplace(kernels.wht_inplace(v.copy()))
        assert np.allclose(w, 64 * v)


class TestCharTable:
    def test_identity_entry(self, rng):
        amps = normalized(rng, 3)
        table = kernels.char_expectations(amps, 3)
        assert abs(table[0] - 1.0) < 1e-12

    def test_squares_sum_to_dim(self, rng):
        # purity: sum_x <W_x>^2 = 2^n
        for n in (2, 3):
            amps = normalized(rng, n)
            table = kernels.char_expectations(amps, n)
            assert abs(np.sum(table**2) - (1 << n)) < 1e-8


class TestConvolve:
    def test_fast_equals_naive(self, rng):
        for nbits in (2, 4, 6):
            p = np.abs(rng.normal(size=1 << nbits))
            p /= p.sum()
            assert np.allclose(
                kernels.xor_convolve(p), kernels.xor_convolve_naive(p, p), atol=1e-12
            )

    def test_delta_convolution(self):
        p = np.zeros(8)
        p[3] = 0.5
        p[5] = 0.5
        want = np.zeros(8)
        want[0] = 0.5
        want[3 ^ 5] = 0.5
        assert np.allclose(kernels.xor_convolve(p), want)

    def test_normalization_preserved(self, rng):
        p = np.abs(rng.normal(size=64))
        p /= p.sum()
        assert abs(kernels.xor_convolve(p).sum() - 1.0) < 1e-12
