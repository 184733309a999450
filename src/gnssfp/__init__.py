"""GPS L1 C/A spoofing detection by fingerprinting EPL correlator outputs."""

__version__ = "0.1.0"

from .prn_codes import CaCode, generate_ca_code, sample_code
from .signal_sim import (AttackConfig, HardwareSignature, IqStream,
                         SatelliteScenario, apply_multipath, spoof_overlay,
                         stream_blocks, synthesize_genuine, synthesize_nav_bits)
from .receiver_core import (EPOCH_DTYPE, AcquisitionResult, TrackResult, acquire,
                            lock_masks, track_channel)
from .fingerprint_features import (FEATURE_DTYPE, FeatureWindowConfig,
                                   extract_features, feature_matrix)
from .mvn_model import MvnModel, fit, from_moments, log_density
from .spoof_detector import (Decision, DetectorProfile, EvalReport,
                             SpoofTimingReport, detect_stream, eer_threshold,
                             evaluate, kfold_xval, prn_sets, spoof_timing, train)
