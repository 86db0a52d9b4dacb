"""Train the character n-gram random forest on the bundled synthetic corpus,
evaluate it, and round-trip the model file.

Training is deterministic: the same seed always produces byte-identical
model files.
"""

import io

import numpy as np

from tla import (
    ForestParams,
    LANGUAGE_ORDER,
    evaluate_model,
    train_identifier,
)
from tla.langid import ForestPredictor
from tla.synth import synthetic_split

SEED = 42

print("generating 80 train / 20 test sentences per language...")
train, test = synthetic_split(80, 20, seed=SEED)

print("training 25 trees...")
predictor = train_identifier(train, ForestParams(num_trees=25, seed=SEED))
print(f"vocabulary size: {predictor.vectorizer.size}")

accuracy, confusion = evaluate_model(predictor.model, predictor.vectorizer, test)
print(f"test accuracy: {accuracy:.3f} on {confusion.sum()} sentences")
for r, c in np.argwhere((confusion > 0) & ~np.eye(16, dtype=bool)):
    print(f"  confused {LANGUAGE_ORDER[r].value} -> {LANGUAGE_ORDER[c].value}: "
          f"{confusion[r, c]}")

print()
sink = io.BytesIO()
n_bytes = predictor.save(sink)
print(f"serialized model: {n_bytes} bytes (magic TLAM, version 1, canonical JSON)")
sink.seek(0)
loaded = ForestPredictor.load(sink)
text = "the train was late again so we walked along the river"
print(f"loaded model predicts {loaded.predict(text)} for an English sentence")
