"""The four catalog workloads and the reference answers their output must show.

Each workload is one ``epslie`` command on built-in catalog inputs, so the
benchmark seed selects no input: the inputs are fixed by the catalog.  The
seed only sets the children's PYTHONHASHSEED, under which the report and
every count metric must stay the same.

The reference answers come from the acceptance tests, the README and the
literature, never from the build under test.  Values that only the seed
commit's own output supports are marked ``seed-derived``.  On top of them,
``golden/<workload>.out`` holds the seed commit's full report, so that any
byte of drift counts as a failure too.
"""

import os
import re

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


class Workload:
    def __init__(self, name, command, algebra, module, dims, sources, extra_check, why):
        self.name = name
        self.command = command  # argv of ``epslie``
        self.algebra = algebra
        self.module = module  # None when the command needs only the algebra
        self.dims = dims  # expected H^0, H^1, ... (cohomology workloads)
        self.sources = sources  # where each reference value comes from
        self.extra_check = extra_check
        self.why = why

    def golden(self):
        with open(os.path.join(GOLDEN, self.name + ".out"), encoding="utf-8") as f:
            return f.read()

    def problems(self, rc, stdout):
        """Everything wrong with one execution's exit code and report."""
        found = []
        if rc != 0:
            found.append("exit code %r" % rc)
        if self.dims is not None:
            got = [int(d) for d in re.findall(r"^H\^\d+ dim (\d+)$", stdout, re.M)]
            if got != self.dims:
                found.append("H dims %s, expected %s" % (got, self.dims))
        found.extend(self.extra_check(self, stdout))
        if stdout != self.golden():
            found.append("report differs from golden/%s.out" % self.name)
        return found


def _no_extra(w, stdout):
    return []


def _representatives(w, stdout):
    # Every nonzero class gets exactly one printed, engine-verified cocycle.
    found = []
    for n, h in enumerate(w.dims):
        k = len(re.findall(r"^representative n=%d " % n, stdout, re.M))
        if k != h:
            found.append("%d representatives at n=%d, expected %d" % (k, n, h))
    return found


def _oracle(w, stdout):
    # The invariant skew forms are computed on a separate code path.
    found = []
    for n in range(1, len(w.dims)):
        line = "oracle n=%d: invariant skew forms dim %d -> agree" % (n, w.dims[n])
        if line not in stdout.splitlines():
            found.append("missing %r" % line)
    return found


def _covering(w, stdout):
    want = [
        "universal covering: dim 35",
        "center dim 1",
        "center sector (0,0,0,0,0,0) dim 1",
        "perfect: yes",
    ]
    got = stdout.splitlines()
    return ["missing %r" % line for line in want if line not in got]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "coh-psl33-trivial",
            ["cohomology", "--algebra", "psl33", "--module", "trivial", "--nmax", "2"],
            "psl33", "trivial", [1, 0, 1],
            {
                "H^0 = 1": "constants: H^0 with trivial coefficients is 1",
                "H^1 = 0": "psl(3|3) is perfect (README; `covering` reports it)",
                "H^2 = 1": "acceptance criterion 9b, which also stops at n = 2",
            },
            _no_extra,
            "many tiny degree sectors with trivial coefficients; the split into "
            "sectors and bracket-term assembly lead",
        ),
        Workload(
            "coh-psl22-adjoint-reps",
            ["cohomology", "--algebra", "psl22", "--module", "adjoint", "--nmax", "3",
             "--representatives"],
            "psl22", "adjoint", [0, 3, 0, 8],
            {
                "H^0 = 0": "psl(2|2) has trivial centre",
                "H^1 = 3": "outer derivations of psl(2|2) form sl(2) (literature)",
                "H^2 = 0": "seed-derived",
                "H^3 = 8": "seed-derived",
                "representatives": "one printed cocycle per class",
            },
            _representatives,
            "module-action assembly, full RREF, kernels, image membership and "
            "direct-formula verification of representatives",
        ),
        Workload(
            "covering-psl33",
            ["covering", "--algebra", "psl33"],
            "psl33", None, None,
            {
                "dim 35, centre 1 in sector 0":
                    "the universal central extension of psl(3|3) is sl(3|3), "
                    "dim 35 (literature); agrees with H^2 = 1 of criterion 9b",
            },
            _covering,
            "builds no cochain-complex matrix: algebra validation, second "
            "homology and span tracking lead",
        ),
        Workload(
            "oracle-sl12",
            ["cohomology", "--algebra", "sl12", "--module", "trivial", "--nmax", "4",
             "--oracle-check"],
            "sl12", "trivial", [1, 0, 0, 1, 0],
            {
                "H^0 = 1": "constants",
                "H^1 = 0, H^2 = 0": "acceptance criteria 4 and 5 at q = 0 (trivial module)",
                "H^3 = 1, H^4 = 0": "the invariant skew forms oracle, printed as "
                                    "'agree' lines; seed-derived for this build",
            },
            _oracle,
            "elimination of the arity-4 invariant-form system leads, with "
            "casimir system assembly",
        ),
    )
}
