package main

import (
	"errors"
	"fmt"
	"io"
	"sort"

	"github.com/richnote/richnote/internal/notif"
	"github.com/richnote/richnote/internal/server"
)

// ledger is the generator's own record of what it sent and what the
// sampled recipients' feeds showed. Each client connection owns one, for
// its half of the users, so no locking is needed.
type ledger struct {
	accepted int
	sent     map[notif.UserID]map[notif.ItemID]bool // sampled recipients only
	history  map[notif.UserID][]notif.Delivery      // sampled recipients only
	// seenThrough is the last round whose deliveries are already in
	// history; reads after a later round add only newer deliveries.
	seenThrough map[notif.UserID]int
	feedCap     int
	err         error
}

func newLedger(sampled []notif.UserID, feedCap int) *ledger {
	l := &ledger{
		feedCap:     feedCap,
		sent:        make(map[notif.UserID]map[notif.ItemID]bool, len(sampled)),
		history:     make(map[notif.UserID][]notif.Delivery, len(sampled)),
		seenThrough: make(map[notif.UserID]int, len(sampled)),
	}
	for _, u := range sampled {
		l.sent[u] = make(map[notif.ItemID]bool)
		l.seenThrough[u] = -1
	}
	return l
}

func (l *ledger) accept(o op) {
	l.accepted++
	if s, ok := l.sent[o.user]; ok {
		s[o.item.ID] = true
	}
}

// observe folds one feed read into the user's history. completed is the
// number of rounds the service had run when the read was sent; the feed
// (newest last) then holds every delivery of rounds up to completed-1,
// unless it overflowed, which is reported.
func (l *ledger) observe(u notif.UserID, feed []notif.Delivery, completed int) {
	last := l.seenThrough[u]
	if len(feed) >= l.feedCap && feed[0].DeliveredRound > last {
		l.setErr(fmt.Errorf("user %d: feed of %d entries starts at round %d, after round %d: deliveries may be lost to the feed cap", u, len(feed), feed[0].DeliveredRound, last))
	}
	for _, d := range feed {
		if d.DeliveredRound > last && d.DeliveredRound < completed {
			l.history[u] = append(l.history[u], d)
		}
	}
	if completed-1 > last {
		l.seenThrough[u] = completed - 1
	}
}

func (l *ledger) setErr(err error) {
	if l.err == nil {
		l.err = err
	}
}

// checkHistories verifies the sampled recipients' deliveries against what
// was sent: every delivered item was sent to that recipient and arrives
// once, each recipient's delivered bytes stay within theta per round, and,
// without injected faults, every item sent was delivered.
func checkHistories(sent map[notif.UserID]map[notif.ItemID]bool, history map[notif.UserID][]notif.Delivery, theta float64, rounds int, expectAll bool) error {
	users := make([]notif.UserID, 0, len(sent))
	for u := range sent {
		users = append(users, u)
	}
	sort.Slice(users, func(i, j int) bool { return users[i] < users[j] })
	for _, u := range users {
		seen := make(map[notif.ItemID]bool)
		var bytes int64
		for _, d := range history[u] {
			if d.Recipient != u || !sent[u][d.ItemID] {
				return fmt.Errorf("user %d: delivered item %d (recipient %d) was never sent to this user", u, d.ItemID, d.Recipient)
			}
			if seen[d.ItemID] {
				return fmt.Errorf("user %d: item %d delivered twice", u, d.ItemID)
			}
			seen[d.ItemID] = true
			bytes += d.Size
		}
		if limit := theta * float64(rounds); float64(bytes) > limit+1 {
			return fmt.Errorf("user %d: %d bytes delivered over %d rounds exceed the budget of %.0f", u, bytes, rounds, limit)
		}
		if expectAll && len(seen) != len(sent[u]) {
			return fmt.Errorf("user %d: %d of %d items sent were delivered", u, len(seen), len(sent[u]))
		}
	}
	return nil
}

// checkConservation verifies, after a cadence-long drain, that no
// publication is still buffered in the brokers and every accepted one was
// delivered, dropped after its retries, or is still queued on its device.
func checkConservation(accepted int, snaps []server.ShardSnapshot) error {
	var delivered, dropped, queued, pending int
	for _, sn := range snaps {
		delivered += sn.Report.Delivered
		dropped += sn.Report.Dropped
		queued += sn.QueueDepth
		pending += sn.BrokerPending
	}
	if pending != 0 {
		return fmt.Errorf("%d publications still buffered in brokers after the drain", pending)
	}
	if delivered+dropped+queued != accepted {
		return fmt.Errorf("accepted %d publishes but delivered %d + dropped %d + queued %d = %d", accepted, delivered, dropped, queued, delivered+dropped+queued)
	}
	return nil
}

// checkRounds verifies that every shard advanced once per tick sent.
func checkRounds(snaps []server.ShardSnapshot, shards, ticks int) error {
	if len(snaps) != shards {
		return fmt.Errorf("%d shards report, want %d", len(snaps), shards)
	}
	for _, sn := range snaps {
		if sn.Round != ticks {
			return fmt.Errorf("shard %d ran %d rounds, %d ticks were sent", sn.Shard, sn.Round, ticks)
		}
	}
	return nil
}

// selfTest feeds the history check one clean record and three corrupted
// ones, a duplicated, a misaddressed and an over-budget delivery, and the
// other checks one violation each; every corruption must be caught.
func selfTest(w io.Writer) error {
	const theta, rounds = 1000.0, 10
	sent := map[notif.UserID]map[notif.ItemID]bool{
		1: {11: true, 12: true, 13: true},
		2: {21: true},
	}
	d := func(u notif.UserID, id notif.ItemID, size int64, round int) notif.Delivery {
		return notif.Delivery{ItemID: id, Recipient: u, Size: size, DeliveredRound: round}
	}
	clean := func() map[notif.UserID][]notif.Delivery {
		return map[notif.UserID][]notif.Delivery{
			1: {d(1, 11, 3000, 2), d(1, 12, 3000, 4), d(1, 13, 3000, 9)},
			2: {d(2, 21, 500, 1)},
		}
	}
	if err := checkHistories(sent, clean(), theta, rounds, true); err != nil {
		return fmt.Errorf("clean history rejected: %w", err)
	}
	cases := []struct {
		name   string
		mutate func(h map[notif.UserID][]notif.Delivery)
	}{
		{"duplicated delivery", func(h map[notif.UserID][]notif.Delivery) { h[1] = append(h[1], d(1, 12, 10, 9)) }},
		{"misaddressed delivery", func(h map[notif.UserID][]notif.Delivery) { h[1] = append(h[1], d(1, 21, 10, 9)) }},
		{"over-budget delivery", func(h map[notif.UserID][]notif.Delivery) { h[1][2].Size = 4100 }},
		{"lost delivery", func(h map[notif.UserID][]notif.Delivery) { h[1] = h[1][:2] }},
	}
	for _, c := range cases {
		h := clean()
		c.mutate(h)
		err := checkHistories(sent, h, theta, rounds, true)
		if err == nil {
			return fmt.Errorf("%s passed the history check", c.name)
		}
		fmt.Fprintf(w, "selftest: %s caught: %v\n", c.name, err)
	}
	snap := func(delivered, dropped, queued, pending, round int) server.ShardSnapshot {
		sn := server.ShardSnapshot{Round: round, QueueDepth: queued, BrokerPending: pending}
		sn.Report.Delivered, sn.Report.Dropped = delivered, dropped
		return sn
	}
	if err := checkConservation(10, []server.ShardSnapshot{snap(6, 1, 0, 0, 5), snap(2, 0, 1, 0, 5)}); err != nil {
		return fmt.Errorf("balanced books rejected: %w", err)
	}
	for _, c := range []struct {
		name  string
		snaps []server.ShardSnapshot
	}{
		{"lost publish", []server.ShardSnapshot{snap(6, 1, 0, 0, 5), snap(2, 0, 0, 0, 5)}},
		{"undrained broker", []server.ShardSnapshot{snap(6, 1, 0, 0, 5), snap(2, 0, 1, 3, 5)}},
	} {
		err := checkConservation(10, c.snaps)
		if err == nil {
			return fmt.Errorf("%s passed the conservation check", c.name)
		}
		fmt.Fprintf(w, "selftest: %s caught: %v\n", c.name, err)
	}
	if err := checkRounds([]server.ShardSnapshot{snap(0, 0, 0, 0, 5), snap(0, 0, 0, 0, 4)}, 2, 5); err == nil {
		return errors.New("a shard behind the tick count passed the rounds check")
	} else {
		fmt.Fprintf(w, "selftest: missed round caught: %v\n", err)
	}
	return nil
}
