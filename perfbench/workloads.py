"""Workload definitions: the suite configs each workload feeds to subgeo.

The check lists are spelled out rather than read from the builtin menus,
so the yardstick stays fixed if a later change edits a menu.  The
workload seed becomes the suites' sampling seed; the geodesic jobs are
the builtins' own and do not depend on it.
"""

from __future__ import annotations

# Default menu of hyperbolic:3 and of gaussian:alpha=1 minus the four
# geodesic checks: 16 checks each, all of them per-sample sweeps.
SWEEP_CHECKS = (
    "affine_hd", "conformal_defect", "conformal_metric", "constant_curvature",
    "curvature_duality", "dual_conformal_pair", "dual_involution",
    "fd_crosscheck", "four_conditions", "gauss_weingarten",
    "induced_statistical", "is_statistical", "lemma_components",
    "projectable", "split_identities", "tensoriality",
)

GEODESIC_CHECKS = (
    "curve_decomposition", "geodesic_energy", "geodesic_projection",
    "sigma_second",
)

BUNDLE_CHECKS = (
    "dual_involution", "fd_crosscheck", "prop41", "prop42",
    "remark_complete_metric", "remark_dual_complete", "tb_defining_rules",
    "tm_statistical",
)

# (builtin, samples, checks) per suite, in run order.
WORKLOADS = {
    "sweep": (
        ("hyperbolic:3", 256, SWEEP_CHECKS),
        ("gaussian:alpha=1", 256, SWEEP_CHECKS),
    ),
    "geodesics": (
        ("hyperbolic:3", 16, GEODESIC_CHECKS),
        ("gaussian:alpha=0", 16, GEODESIC_CHECKS),
    ),
    "bundle": (
        ("tangent_bundle_of:hyperbolic:2", 128, BUNDLE_CHECKS),
        ("tangent_bundle_of:gaussian:alpha=1", 128,
         BUNDLE_CHECKS + ("remark_horizontal",)),
    ),
}


def configs(workload: str, seed: int) -> list:
    """Raw config dicts, as a user would write them, for one workload run."""
    return [
        {
            "builtin": builtin,
            "mode": "jet",
            "checks": list(checks),
            "sampling": {"count": samples, "seed": seed},
        }
        for builtin, samples, checks in WORKLOADS[workload]
    ]
