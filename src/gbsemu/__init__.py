"""Cumulant-truncation emulator for Gaussian boson sampling with threshold detectors."""

__version__ = "0.1.0"

from .benchmark import (
    BenchmarkReport,
    bootstrap,
    build_report,
    estimate_click_cumulants,
    estimate_correlator,
    linear_fit,
    pearson,
    spearman,
    total_click_histogram,
    tvd,
    xeb,
)
from .cumulants import (
    SubsetTable,
    click_cumulant,
    click_cumulants_from_cumulants,
    correlator,
    correlator_table,
    correlators_from_cumulants,
    cumulant_recursion_residual,
    cumulant_tables,
    cumulants_from_correlators,
    empirical_correlator_table,
    load_table,
    moments_from_click_marginals,
    save_table,
)
from .errors import GbsError, NumericalError, ResourceGuardError, ValidationError
from .gaussian import (
    GaussianInstance,
    HusimiForm,
    JiuzhangSpec,
    brute_force_distribution,
    build_input_covariance,
    embed_transmission,
    exact_probability,
    ground_truth_covariance,
    husimi_form,
    instance_from_jiuzhang,
    load_instance,
    random_instance,
    reduce_modes,
    save_instance,
    torontonian,
    vacuum_instance,
    vacuum_overlap,
)
from .sampler import (
    MarginalTables,
    SampleBatch,
    SamplerConfig,
    batch_sample,
    chain_joint_probability,
    exact_reference_sampler,
    load_samples,
    save_samples_packed,
    save_samples_text,
)

__all__ = [name for name in dir() if not name.startswith("_")]
