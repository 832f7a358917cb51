"""Call counters for the tests that pin how often a layer is called."""

import numpy as np

from trisplit import duhamel, harness


def count_calls(monkeypatch, module, name, calls):
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def forbid_solve(monkeypatch):
    # np.linalg.solve raises: only a Pade exponential calls it
    def solve(*args):
        raise AssertionError("np.linalg.solve ran")

    monkeypatch.setattr(np.linalg, "solve", solve)


def count_evolve_steps(monkeypatch):
    # one step tuple per evolve_runs call, whatever its number of schemes
    calls = []
    original = harness.evolve_runs

    def counted(u, v, horizon, steps, *schemes):
        calls.append(tuple(steps))
        return original(u, v, horizon, steps, *schemes)

    monkeypatch.setattr(harness, "evolve_runs", counted)
    return calls


def record_levels(monkeypatch):
    # (panels, estimates) of every level duhamel_error's eigenbasis path evaluates
    levels = []
    original = duhamel._eigenbasis_levels

    def recorded(*args):
        evaluate = original(*args)

        def once(panels, rows):
            estimates = evaluate(panels, rows)
            levels.append((panels, estimates.copy()))  # refinement writes into its first
            return estimates

        return once

    monkeypatch.setattr(duhamel, "_eigenbasis_levels", recorded)
    return levels
