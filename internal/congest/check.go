//go:build congestcheck

package congest

// The congestcheck build runs every round's handlers in a seeded
// permutation of the schedule, poisons every spent word arena, and
// re-runs every schedule RunOnce would rebill, comparing its cost with
// the bill: go test -tags congestcheck ./...
func init() { permuteSchedule, poisonArena, recheckBills = true, true, true }
