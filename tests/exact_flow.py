"""An exact wave flow built without the split-step solver, for the tests
that hold its runs to it."""

import numpy as np


def grid_flow(samples, potential, t, half_width):
    """e^{itH} u for the grid Hamiltonian H = K + V, by one eigh.  K conjugates
    diag(k^2/2) by the DFT, with k from the index; k^2 is even in k and the
    Nyquist phases are +-1, so K is real symmetric."""
    n = len(samples)
    index = np.arange(n)
    k = np.pi / half_width * np.where(index < n // 2, index, index - n)
    dft = np.exp(-2j * np.pi * np.outer(index, index) / n)
    kinetic = (dft.conj().T @ np.diag(k**2 / 2) @ dft / n).real
    energies, modes = np.linalg.eigh(kinetic + np.diag(potential))
    return modes @ (np.exp(1j * t * energies) * (modes.T @ samples))
