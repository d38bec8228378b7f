"""Global-in-time tunnel asymptotics for 1D nonlocal evolution equations.

The pipeline: parse coefficient expressions (`expr`), assemble the operator
symbol (`symbol`), integrate characteristic fans with action and variational
data (`characteristics`), extract minimal-action branches and track jumps
(`manifold`), carry densities and singular amplitudes (`density`), certify
the weak-form identities (`verify`), cross-check against brute-force ground
truth (`oracle`), and build the window-regularized global flow
(`regularize`).  `scenario` + `cli` drive it all from flat config files.

The package imports none of them: import each one by name
(`from tunnelshock import density`), and only it and its dependencies load.
Nothing here needs more than numpy.
"""

__version__ = "0.1.0"
