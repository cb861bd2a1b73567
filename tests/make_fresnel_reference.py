"""Write fresnel_reference.json: 40-digit values for the Fresnel tests.

The tests compare the spectrum engine's lattice table and PSD against
these values; CI installs no mpmath, so they are committed.  Regenerate
with

    python tests/make_fresnel_reference.py

which takes about half an hour on one core and needs mpmath.  Every
value is computed with 70 significant digits, which leaves more than 40
after the cancellation in C + 1/2 and in Gc, and written with 40.

- "table": D = K(x) + (1+j)/2 with K = C + jS, at the lattice points
  x = sqrt(2/M)*j/k (x exact, not rounded to a double): the integers j
  nearest either side of |x| = 8, and |x| from 8.5 to 5e4, both signs.
- "psd": the continuous PSD Gc of the unit-power envelope at B = 1 Hz,
  f = n/(k*M): at SF 7 and 8 with k = 2 at about 8B, 32B and 128B, and
  on the grids `lorachirp spectrum` writes by default (k = 64, 32, 16,
  8 and 2 at SF 7, 8, 9, 10 and 12) at about B, 4B and 8B; each value
  from the closed-form transform of each symbol,
      X(f;l) = w(l/M - 1/2 - f; 0, M - l) + w(l/M - 3/2 - f; M - l, M)
      w(a; t1, t2) = e^{-j*pi*M*a^2}/(2*sqrt(b)) * [K(2*sqrt(b)*(t2 + M*a))
                     - K(2*sqrt(b)*(t1 + M*a))],  b = 1/(2M),
      Gc = (sum_l |X|^2 - |sum_l X|^2 / M) / M^2.
- "lines": the line power |sum_l X|^2 / M^4 at f = n/M, B = 1 Hz, from
  the same per-symbol sum (not from the Gauss-sum identity that the
  engine uses), at SF 9 and 12 and 8 n each, from the band centre to 8B.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

import mpmath

mpmath.mp.dps = 70
OUT = Path(__file__).with_name("fresnel_reference.json")
TABLE_LATTICES = [(7, 2), (8, 2), (12, 1), (16, 1)]
FAR_X = [8.5, 20.0, 100.0, 500.0, 2000.0, 1e4, 5e4]
PSD_SF = [7, 8]
PSD_K = 2
# fresnel_spectrum's default k = max(1, min(64, 8192 // M)) at each SF
DEFAULT_GRIDS = [(7, 64), (8, 32), (9, 16), (10, 8), (12, 2)]
LINE_SF = [9, 12]


def fresnel_k(x):
    return mpmath.mpc(mpmath.fresnelc(x), mpmath.fresnels(x))


def digits(v) -> str:
    return mpmath.nstr(v, 40, strip_zeros=False)


def table_points(sf: int, k: int) -> list[int]:
    M = 2 ** sf
    # |x| = 8 falls at j = 8*k*sqrt(M/2)
    edge = 8 * k * math.sqrt(M / 2)
    near = range(math.floor(edge) - 2, math.ceil(edge) + 3)
    far = {round(x * k * math.sqrt(M / 2)) for x in FAR_X}
    return sorted({s * j for j in (*near, *far) for s in (1, -1)})


def table_value(sf: int, k: int, j: int) -> dict:
    x = mpmath.sqrt(mpmath.mpf(2) / 2 ** sf) * j / k
    d = fresnel_k(x) + mpmath.mpc(0.5, 0.5)
    return {"sf": sf, "k": k, "j": j, "re": digits(d.real), "im": digits(d.imag)}


def transform_sums(sf: int, k: int, n: int):
    """sum_l |X(f;l)|^2 and sum_l X(f;l) at f = n/(k*M), B = 1 Hz."""
    M = 2 ** sf
    f = mpmath.mpf(n) / (k * M)
    b = mpmath.mpf(1) / (2 * M)
    rb2 = 2 * mpmath.sqrt(b)

    def w(a, t1, t2):
        shift = M * a  # a/(2b)
        return (mpmath.expjpi(-M * a * a) / rb2
                * (fresnel_k(rb2 * (t2 + shift)) - fresnel_k(rb2 * (t1 + shift))))

    sum_abs2 = mpmath.mpf(0)
    sum_x = mpmath.mpc(0)
    for l in range(M):
        tau = M - l
        x = (w(mpmath.mpf(l) / M - mpmath.mpf(1) / 2 - f, 0, tau)
             + w(mpmath.mpf(l) / M - mpmath.mpf(3) / 2 - f, tau, M))
        sum_abs2 += abs(x) ** 2
        sum_x += x
    return sum_abs2, sum_x


def continuous_psd(sf: int, k: int, n: int):
    sum_abs2, sum_x = transform_sums(sf, k, n)
    M = 2 ** sf
    return (sum_abs2 - abs(sum_x) ** 2 / M) / M ** 2


def line_points(sf: int) -> list[int]:
    M = 2 ** sf
    return [0, 1, M // 4 + 3, M // 2 - 1, M // 2, M // 2 + 1, 2 * M + 7, 8 * M - 1]


def line_power(sf: int, n: int):
    _, sum_x = transform_sums(sf, 1, n)
    return abs(sum_x) ** 2 / 2 ** (4 * sf)


def main() -> None:
    table = [table_value(sf, k, j) for sf, k in TABLE_LATTICES for j in table_points(sf, k)]
    psd = [(sf, PSD_K, n) for sf in PSD_SF
           for kM in [PSD_K * 2 ** sf] for n in (8 * kM + 1, 32 * kM + 1, 128 * kM - 1)]
    psd += [(sf, k, n) for sf, k in DEFAULT_GRIDS
            for kM in [k * 2 ** sf] for n in (kM + 1, 4 * kM + 1, 8 * kM - 1)]
    psd = [{"sf": sf, "k": k, "n": n, "gc": digits(continuous_psd(sf, k, n))}
           for sf, k, n in psd]
    lines = [{"sf": sf, "n": n, "power": digits(line_power(sf, n))}
             for sf in LINE_SF for n in line_points(sf)]
    OUT.write_text(json.dumps({"table": table, "psd": psd, "lines": lines}, indent=1) + "\n")
    print(f"wrote {len(table)} table, {len(psd)} PSD and {len(lines)} line values to {OUT}")


if __name__ == "__main__":
    main()
