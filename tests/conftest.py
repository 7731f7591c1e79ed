from ratepower.core import UserTable


def sample_calculus_point(rng):
    """Random interior evaluation point for the calculus checks.

    Draws an instance, then offsets both coordinates from its closed-form
    best response by factors in [0.25, 4]. This keeps every derivative at a
    meaningful scale, so entrywise relative error is well defined.
    """
    from ratepower.oracle import unconstrained_best_response

    a1 = float(rng.uniform(1e4, 1e7))
    a2 = float(rng.uniform(1.0, 100.0))
    lam = float(10 ** rng.uniform(-6, -2))
    r_eff = float(10 ** rng.uniform(-2, 1.7))
    base = unconstrained_best_response(r_eff, a1, a2, lam)
    p = base.power * 10 ** float(rng.uniform(-0.6, 0.6))
    r = base.rate * 10 ** float(rng.uniform(-0.6, 0.6))
    return p, r, r_eff, a1, a2, lam


def starting_at(users, powers, rates):
    """The table ``users`` with its initial strategies set to the given powers and rates.

    A solve starts at each user's own initial strategy, so this is how a test
    starts one from a chosen state. The new table is checked as any table
    built from columns, so a start outside a box raises ``UserParams``'
    message for it.
    """
    constants = ("alpha1", "alpha2", "lam", "p_min", "p_max", "r_min", "r_max")
    return UserTable(**{name: getattr(users, name) for name in constants}, p_init=powers, r_init=rates)


def rows(trace):
    """Every iteration's row view of a trace, in order, from its segment columns.

    ``Segment.row`` raises ``IndexError`` on a dropped row, so a trace solved
    under "last" history raises here unless each segment has one iteration.
    """
    return [seg.row(s) for seg in trace.segments for s in range(len(seg.iterations))]
