"""smol: soil moisture from LoRa signal strength, at desk scale.

Simulates the buried-transmitter channel, runs the transmit-power-sweep
measurement protocol over it, and calibrates regressors that map
(RSSI, TX power) to volumetric water content.
"""

from .calibrate import (
    CompareRow,
    Dataset,
    Evaluation,
    FeatureMode,
    ModelKind,
    ModelSpec,
    SingularSystemError,
    TrainedModel,
    assemble,
    compare,
    evaluate,
    fit,
    load_model,
    render_table,
    save_model,
    split,
)
from .campaign import (
    CampaignConfig,
    ConfigError,
    Scenario,
    load_config,
    median_power_curves,
    read_measurements,
    run_campaign,
    save_config,
    write_measurements,
)
from .groundtruth import TdrSensor, read_vwc
from .soilchan import (
    Dielectric,
    LinkGeometry,
    NoiseModel,
    SoilState,
    attenuation_constant,
    mix_permittivity,
    path_loss,
    sweep_curve,
    sweep_rssi,
    synth_rssi,
)
from .sweepproto import (
    FrameError,
    MeasurementLog,
    PowerPlan,
    SimulatedLink,
    SweepPacket,
    decode_packet,
    encode_packet,
    encode_plan,
    median_power,
)

__version__ = "0.1.0"
