"""The lambda column r_lambda of the bordered Newton matrix as a central
difference of two residuals at lambda -/+ h, h = 1e-6 (1 + |lambda|): how
the corrector took it before the column came exactly from the potential's
grad_lambda.  The recorded branch bits and verify digests were taken with
it, so the tests that keep them install it as continuation._lambda_column,
and it is the reference the exact column is measured against."""

from symbif import continuation


def central_difference(problem, c, lam):
    h = 1e-6 * (1.0 + abs(lam))
    rp = continuation.assemble_residual(problem, c, lam + h)
    rm = continuation.assemble_residual(problem, c, lam - h)
    return (rp - rm) / (2.0 * h)
