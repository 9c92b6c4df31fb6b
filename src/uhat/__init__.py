"""Symbolic toolkit for graded unipotent group actions on presented algebras.

Modules cover exact polynomial arithmetic (`rings`), graded Lie algebras
and their derivation actions (`lie`), the infinitesimal-action condition
checks (`infinitesimal`), staged invariant-ring quotients (`quotient`), the
one-step blow-up construction (`blowup`) and the scenario file format plus
command line driver (`scenario`, `cli`).
"""
