"""Two-stage structural break detection for high-dimensional VAR series."""

from .model import (SegmentedVarModel, TuningSchedule, check_model,
                    companion_spectral_radius, default_schedule,
                    effective_sample_size)
from .pipeline import (DetectionResult, ReplicateSummary, detect, hausdorff,
                       run_replicates, schedule_for_data,
                       stage1_coverage_check)
from .simulate import (ScenarioPreset, SimulationConfig, make_scenario,
                       scenario_preset, simulate)
from .stage1 import (CandidateSet, KktReport, Stage1Problem, ThetaEstimate,
                     bcd_solve, build_stage1, extract_candidates, kkt_check)
from .stage2 import (ScreeningResult, SegmentFit, cluster_candidates,
                     evaluate_subset, fit_segment, premerge_candidates,
                     select_breaks)

__version__ = "0.1.0"

__all__ = [
    "SegmentedVarModel", "TuningSchedule", "check_model",
    "companion_spectral_radius", "default_schedule", "effective_sample_size",
    "ScenarioPreset", "SimulationConfig", "make_scenario", "scenario_preset",
    "simulate",
    "Stage1Problem", "ThetaEstimate", "KktReport", "CandidateSet",
    "build_stage1", "bcd_solve", "kkt_check",
    "extract_candidates",
    "SegmentFit", "ScreeningResult", "fit_segment", "evaluate_subset",
    "premerge_candidates", "cluster_candidates", "select_breaks",
    "DetectionResult", "ReplicateSummary", "detect", "hausdorff",
    "run_replicates", "schedule_for_data", "stage1_coverage_check",
    "__version__",
]
