"""Admission control: traffic matrices, demand adjustment, tube fairness,
EER admission per AS role, and intra-AS policies (§4.7)."""

from repro.admission.demands import AdjustedDemand, adjust_demand
from repro.admission.eer_admission import EerAdmission, TransferDistributor
from repro.admission.policy import (
    AdmissionPolicy,
    AllowAllPolicy,
    PerHostCapPolicy,
)
from repro.admission.traffic_matrix import TrafficMatrix
from repro.admission.tube_fairness import SegmentAdmission

__all__ = [
    "TrafficMatrix",
    "AdjustedDemand",
    "adjust_demand",
    "SegmentAdmission",
    "EerAdmission",
    "TransferDistributor",
    "AdmissionPolicy",
    "AllowAllPolicy",
    "PerHostCapPolicy",
]
