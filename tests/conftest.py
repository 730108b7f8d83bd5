"""Shared helpers for the test suite."""

import numpy as np

import rabistark as rs


build_eigs = rs.eigensystem


def steady_pipeline(model, bath, n_levels=40):
    """Diagonalize, build rates, and solve the steady state."""
    eigs = build_eigs(model)
    table = rs.transition_rates(eigs, model, bath, n_levels=n_levels)
    ss = rs.steady_populations(table)
    return eigs, table, ss


def observables_pipeline(model, bath, n_levels=40):
    """Full chain up to the detection operator and annihilation operator."""
    eigs, table, ss = steady_pipeline(model, bath, n_levels=n_levels)
    x = rs.detection_operator(
        eigs, rs.composite_position(model.n_tr), n_levels=table.n_levels
    )
    a = rs.composite_annihilation(model.n_tr)
    return eigs, table, ss, x, a


def random_model(rng, n_tr=40, g_max=1.5, r_max=2.0, u_max=0.8):
    return rs.ModelParams(
        delta=1.0,
        g=float(rng.uniform(0.0, g_max)),
        r=float(rng.uniform(0.0, r_max)),
        u=float(rng.uniform(-u_max, u_max)),
        n_tr=n_tr,
    )
