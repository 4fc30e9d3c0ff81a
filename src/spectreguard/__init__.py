"""Detection, channel economics, and isolation-policy simulation for
Spectre-style attacks in multi-tenant sandboxed runtimes.  The package loads
no submodule, so each entry point imports only the modules it runs."""

__version__ = "0.1.0"
