"""R6 fixture: backend op accepting ``semiring=`` without resolving it.

Never imported — parsed by reprolint only.  The operation contract
requires every ``semiring=`` parameter to go through the registry
(``_resolve_semiring`` / ``_resolve_ops``) before dispatch, so unknown
algebra names fail as ``InvalidArgumentError`` instead of crashing
mid-kernel on a missing attribute.
"""


class Backend:
    pass


class SemiringFixtureBackend(Backend):
    def reduce_to_column(self, a, *, semiring=None):
        """Seeded violation: straight to the kernel — a string semiring
        name would explode on ``.add`` deep inside the reduction."""
        return a.reduce(semiring.add if semiring else None)

    def kron(self, a, b, *, semiring=None):
        """Clean: resolves the algebra through the registry first."""
        s = self._resolve_semiring(semiring)
        return a.kron(b, s)

    def ewise_add(self, a, b, *, semiring=None):  # reprolint: disable=R6
        """Suppressed twin (shape check present, so only the semiring
        half of R6 is exercised)."""
        self._check_same_shape(a, b)
        return a | b
