"""K-means credit-risk prediction pipeline.

Loading and preprocessing (:mod:`riskmeans.data_ingest`), Lloyd's K-means
with a cluster-posterior classifier (:mod:`riskmeans.kmeans_core`), logistic
RFE feature selection (:mod:`riskmeans.feature_select`), evaluation metrics
(:mod:`riskmeans.metrics`), sliding-window feature expansion
(:mod:`riskmeans.mg_scanner`), and a stratified cross-validation harness
(:mod:`riskmeans.bench_harness`) behind the ``riskmeans`` command line.
"""

from .bench_harness import (
    CvReport,
    PipelineConfig,
    compare_methods,
    run_pipeline,
)
from .config import ConfigError, ExperimentConfig, load_config
from .cv import FoldPlan, stratified_kfold
from .data_ingest import (
    ColumnSpec,
    DataError,
    Dataset,
    PreprocessReport,
    apply_report,
    load_csv,
    load_with_schema,
    preprocess,
    read_schema,
)
from .feature_select import (
    LogisticModel,
    RfeResult,
    fit_logistic,
    rfe,
    select_target_k,
)
from .kmeans_core import (
    ClusterClassifier,
    KMeansModel,
    KMeansParams,
    choose_k,
    fit_classifier,
    kmeanspp_init,
    lloyd_fit,
    predict_scores,
    silhouette_score,
)
from .metrics import (
    BrierInput,
    ConfusionCounts,
    MetricBundle,
    RocCurve,
    accuracy,
    auc,
    auc_pair_count,
    brier,
    brier_binary,
    compute_bundle,
    confusion,
    f1,
    precision,
    recall,
    roc_curve,
    tpr,
)
from .mg_scanner import (
    ScanConfig,
    fit_window_estimators,
    scan,
    transform_matrix,
    window_count,
)
from .seeding import derive_seed

__version__ = "0.1.0"
