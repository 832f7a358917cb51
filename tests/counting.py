"""Call counters for the tests that pin how often a layer is called."""

from trisplit import harness


def count_calls(monkeypatch, module, name, calls):
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def count_evolve_steps(monkeypatch):
    # one step tuple per evolve_runs call
    calls = []
    original = harness.evolve_runs

    def counted(u, v, horizon, steps, scheme):
        calls.append(tuple(steps))
        return original(u, v, horizon, steps, scheme)

    monkeypatch.setattr(harness, "evolve_runs", counted)
    return calls
