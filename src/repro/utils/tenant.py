"""The account label a request bills to.

A leaf module: :mod:`repro.admission`, :mod:`repro.sim.online` and
:mod:`repro.tenancy` all bill by it, and importing anything from the
``repro.tenancy`` package pulls in its serving layer, which imports the
online loop.  :mod:`repro.tenancy.slo` re-exports both names.
"""

#: Canonical account label for requests without a tenant tag.
UNTENANTED = "(untenanted)"


def tenant_label(request) -> str:
    """The account name a request's dispositions bill to."""
    tenant = getattr(request, "tenant", None)
    return tenant if tenant else UNTENANTED
