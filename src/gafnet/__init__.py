"""Multimodal ECG classification with Gramian Angular Field imaging.

Submodules:
    dsp      -- bandpass filtering, normalization, windowing
    gaf      -- time series to Gramian Angular Field images
    ops      -- differentiable array primitives with hand-written backward passes
    model    -- dual-branch network as stage lists with a backward tape; split attention fusion
    optim    -- loss, Adam, learning-rate schedules, training loop
    data     -- UCR and WFDB/MIT-BIH loaders, stratified splits
    metrics  -- accuracy, macro F1, macro one-vs-rest AUC
    pipeline -- preprocessing and GAF imaging of whole datasets, training and evaluation of runs
    config   -- key = value run configs read off the config dataclasses
    errors   -- the package's exception types
    cli      -- command-line entry point
"""

__version__ = "0.1.0"
