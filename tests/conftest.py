from dataclasses import replace


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
    """The users with their initial strategies set to the given powers and rates.

    A solve starts at each user's own initial strategy, so this is how a test
    starts one from a chosen state.
    """
    return [
        replace(u, p_init=float(p), r_init=float(r)) for u, p, r in zip(users, powers, rates)
    ]
