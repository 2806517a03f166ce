//go:build race

package fleet_test

const raceEnabled = true
