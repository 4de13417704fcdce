"""smol: soil moisture from LoRa signal strength, at desk scale.

Simulates the buried-transmitter channel, runs the transmit-power-sweep
measurement protocol over it, and calibrates regressors that map
(RSSI, TX power) to volumetric water content.
"""

__version__ = "0.1.0"
