"""Speaker verification with double multi-head attention pooling.

Pipeline: log-mel features -> VGG encoder -> attention pooling (vanilla
self attention / self MHA / double MHA) -> FC head with AM-Softmax ->
cosine scoring with EER / minDCF over trial lists.
"""
