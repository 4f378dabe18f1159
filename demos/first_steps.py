"""Tour of the core objects: representations, streaming sums, the exact oracle.

Writes p = x^2 + y^2, evaluates sum binom(2k,k)^3/64^k over 0 <= k < p
modulo p^2, and checks the closed form 4x^2 - 2p against both the O(p)
streaming engine and the exact big-rational oracle.
"""

from supercon.arith import OddPrime
from supercon.engine import CONST_WEIGHT, FULL, SumSpec, binomial_sum
from supercon.oracle import exact_sum
from supercon.quadform import represent


def main() -> None:
    p = OddPrime(193)
    rep = represent(p, 1)
    print(f"{p} = {rep.x}^2 + {rep.y}^2  (x odd)")

    spec = SumSpec(3, 64, (1,), CONST_WEIGHT, FULL, 2)
    fast = binomial_sum(spec, p)
    want = (4 * rep.x * rep.x - 2 * p) % fast.modulus
    print(f"sum binom(2k,k)^3/64^k = {fast.value} (mod {fast.modulus})")
    print(f"4x^2 - 2p             = {want} (mod {fast.modulus})")
    assert fast.value == want

    slow = exact_sum(spec, p)
    assert (slow.value, slow.modulus) == (fast.value, fast.modulus)
    print("exact rational oracle agrees with the streaming engine")


if __name__ == "__main__":
    main()
