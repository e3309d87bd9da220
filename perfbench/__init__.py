"""Benchmark for ptqlab: three closed-loop workloads driven through the public
stage functions of ``ptqlab.pipeline``, plus a traced run that reports
per-module metrics. Entry point: ``python3 perfbench/run.py``; see
``perfbench/NOTES.md``.
"""
