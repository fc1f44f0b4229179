// Package models programmatically constructs the ten model families of the
// NNLQP evaluation (§8.1) — AlexNet, VGG, GoogleNet, ResNet, SqueezeNet,
// MobileNetV2, EfficientNet, MobileNetV3, MnasNet and NASBench201 — plus the
// detection models of Fig. 8 and the OFA-style supernet samples of Fig. 9.
//
// Following the paper's dataset construction ("transform each one to get
// 2,000 variants with various kernel sizes and output channels"), every
// family exposes a deterministic random-variant generator driven by a
// caller-supplied *rand.Rand, so the full 20,000-model dataset is
// reproducible from a single seed.
package models

import (
	"fmt"
	"math/rand"

	"nnlqp/internal/onnx"
)

// Family names as used in the paper's tables.
const (
	FamilyAlexNet      = "AlexNet"
	FamilyVGG          = "VGG"
	FamilyGoogleNet    = "GoogleNet"
	FamilyResNet       = "ResNet"
	FamilySqueezeNet   = "SqueezeNet"
	FamilyMobileNetV2  = "MobileNetV2"
	FamilyEfficientNet = "EfficientNet"
	FamilyMobileNetV3  = "MobileNetV3"
	FamilyMnasNet      = "MnasNet"
	FamilyNasBench201  = "NasBench201"
	FamilyDetection    = "Detection"
	FamilyOFA          = "OFA"
)

// Families lists the ten classification families of Table 3 in paper order.
var Families = []string{
	FamilyResNet, FamilyVGG, FamilyEfficientNet, FamilyMobileNetV2,
	FamilyMobileNetV3, FamilyMnasNet, FamilyAlexNet, FamilySqueezeNet,
	FamilyGoogleNet, FamilyNasBench201,
}

// roundCh rounds a scaled channel count to the nearest multiple of base
// (min base), the standard width-multiplier convention.
func roundCh(c float64, base int) int {
	v := int(c/float64(base)+0.5) * base
	if v < base {
		v = base
	}
	return v
}

// scaleCh applies a width multiplier with multiple-of-8 rounding.
func scaleCh(c int, mult float64) int { return roundCh(float64(c)*mult, 8) }

// pickKernel draws a kernel size from choices.
func pickKernel(rng *rand.Rand, choices ...int) int {
	return choices[rng.Intn(len(choices))]
}

// widthMult draws a width multiplier in [lo, hi].
func widthMult(rng *rand.Rand, lo, hi float64) float64 {
	return lo + rng.Float64()*(hi-lo)
}

// Variant builds a random variant of the named family at the given batch
// size, using rng for all stochastic choices.
func Variant(family string, rng *rand.Rand, batch int) (*onnx.Graph, error) {
	switch family {
	case FamilyAlexNet:
		return AlexNetVariant(rng, batch), nil
	case FamilyVGG:
		return VGGVariant(rng, batch), nil
	case FamilyGoogleNet:
		return GoogleNetVariant(rng, batch), nil
	case FamilyResNet:
		return ResNetVariant(rng, batch), nil
	case FamilySqueezeNet:
		return SqueezeNetVariant(rng, batch), nil
	case FamilyMobileNetV2:
		return MobileNetV2Variant(rng, batch), nil
	case FamilyEfficientNet:
		return EfficientNetVariant(rng, batch), nil
	case FamilyMobileNetV3:
		return MobileNetV3Variant(rng, batch), nil
	case FamilyMnasNet:
		return MnasNetVariant(rng, batch), nil
	case FamilyNasBench201:
		return NasBench201Variant(rng, batch), nil
	case FamilyDetection:
		return DetectionVariant(rng, batch), nil
	case FamilyOFA:
		return OFAVariant(rng, batch), nil
	default:
		return nil, fmt.Errorf("models: unknown family %q", family)
	}
}
