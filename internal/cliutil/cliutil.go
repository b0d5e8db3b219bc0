// Package cliutil holds the tiny flag-validation helpers the command-line
// tools share. Each check returns a one-line error; callers print it to
// stderr, show usage, and exit with status 2, so every tool rejects
// nonsense flags the same way.
package cliutil

import "fmt"

// Positive rejects zero or negative values for the named flag.
func Positive(name string, v int) error {
	if v <= 0 {
		return fmt.Errorf("-%s must be positive, got %d", name, v)
	}
	return nil
}

// NonNegative rejects negative values for the named flag.
func NonNegative(name string, v int) error {
	if v < 0 {
		return fmt.Errorf("-%s must be non-negative, got %d", name, v)
	}
	return nil
}

// Requires rejects the named boolean flag when it is set but cannot take
// effect because cond (a condition on another flag, such as "-faults > 0")
// does not hold.
func Requires(name string, set bool, cond string, holds bool) error {
	if set && !holds {
		return fmt.Errorf("-%s requires %s", name, cond)
	}
	return nil
}

// FirstErr returns the first non-nil error, so a tool can list all its
// flag checks in one call.
func FirstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
