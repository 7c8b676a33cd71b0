"""The error taxonomy under its historical name.

It lives in :mod:`repro.errors`, outside the analyzer package, so the
batch parent can classify failures without importing the analyzer;
this module keeps the old import path working.
"""

from repro.errors import (  # noqa: F401
    ERROR_KINDS,
    TRANSIENT_KINDS,
    AnalysisError,
    classify_exception,
    is_durable,
    stage,
)
