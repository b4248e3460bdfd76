"""Field towers, ordered bases, and the two representation maps.

A tower F_q < F_{q^{t_1}} < ... < F_{q^{t_l}} carries an ordered basis
(beta_1 = 1, beta_2, ...) built by multiplying level bases together.  The
coordinate map psi turns top-field vectors into matrices over F_q; the
multiplication-matrix map pi embeds the field into square matrices.
"""

from fdrm import build_tower

tower = build_tower(2, 1, (2, 4))
print(f"{tower}: top field GF(2^4), modulus {tower.field.modulus}")
print(f"level bases: {tower.alphas}")
print(f"betas: {tower.betas}")
print()

# beta recursion: beta_{y*t_1+z} = beta_z * alpha_{2,y}
a21 = tower.alphas[1][1]
for z in (1, 2):
    lhs = tower.beta(2 + z)
    rhs = tower.field.mul(tower.beta(z), a21)
    print(f"beta_{2 + z} = beta_{z} * alpha_(2,1): {lhs} == {rhs}")
print()

vec = (tower.beta(3), 0, 1)
mat = tower.psi(vec)
print(f"psi{vec} =")
for row in mat:
    print("  ", row)
print(f"psi_inv round-trips: {tower.psi_inv(mat) == vec}")
print()

def matmul_gfp(base, A, B):
    n = len(A)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = 0
            for k in range(n):
                acc = base.add(acc, base.mul(A[i][k], B[k][j]))
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


t8 = build_tower(2, 1, (3,))
alpha = t8.field.alpha
pa = t8.pi_expand(alpha)
print("pi on GF(2^3): pi(alpha) is the companion matrix of the modulus")
for row in pa:
    print("  ", row)
squared = t8.pi_expand(t8.field.mul(alpha, alpha))
print("pi(alpha^2) = pi(alpha)^2 holds:", squared == matmul_gfp(t8.base, pa, pa))
