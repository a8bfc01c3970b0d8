"""Core algorithmic contribution of the paper.

Sample-size-independent (SSI) error bounders for AVG over
without-replacement samples (Hoeffding-Serfling, empirical
Bernstein-Serfling, Anderson/DKW), the RangeTrim meta-algorithm that
removes phantom outlier sensitivity (PHOS), the OptStop optional
stopping schedule, unknown-N machinery (selectivity CIs, N+ upper
bound, COUNT/SUM CIs), and stopping conditions and active-group rules.
"""
