//go:build !race

package cachelib

const raceDetectorEnabled = false
