"""The reproduced experiments (:mod:`repro.bench.experiments`) and the
record they write (:mod:`repro.bench.report`)."""
