"""Simulator and analysis toolkit for two-spin entanglement-enhanced
magnetometry with an optically read sensor spin and an environmental
ancilla spin."""

__version__ = "0.1.0"
