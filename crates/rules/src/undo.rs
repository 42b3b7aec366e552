//! Transactional netlist mutation with an undo log.
//!
//! "In constructing the search tree, SOCRATES keeps a log of changes made
//! to the circuit by each rule application. When backtracking is required,
//! the changes to the circuit can be quickly undone by referring to this
//! log" (§2.2.2). [`Tx`] records every mutation; [`UndoLog::undo`] replays
//! the inverses in reverse order.

use milo_netlist::{
    Component, ComponentId, ComponentKind, Net, NetId, Netlist, NetlistError, PinRef, Spliced,
    TouchSet,
};

/// One recorded mutation.
#[derive(Clone, Debug)]
enum Op {
    AddedComponent(ComponentId),
    RemovedComponent(ComponentId, Component, Vec<(u16, NetId)>),
    Connected(PinRef, NetId),
    Disconnected(PinRef, NetId),
    AddedNet(NetId),
    RemovedNet(NetId, Net),
    KindChanged(ComponentId, ComponentKind),
}

impl Op {
    fn touch(&self, t: &mut TouchSet) {
        match self {
            Op::AddedComponent(id) => t.component(*id),
            Op::RemovedComponent(id, _, conns) => {
                t.component(*id);
                for (_, net) in conns {
                    t.net(*net);
                }
            }
            Op::Connected(pin, net) | Op::Disconnected(pin, net) => {
                t.component(pin.component);
                t.net(*net);
            }
            Op::AddedNet(id) | Op::RemovedNet(id, _) => t.net(*id),
            Op::KindChanged(id, _) => t.component(*id),
        }
    }
}

/// A committed change log that can be undone.
#[derive(Debug, Default)]
pub struct UndoLog {
    ops: Vec<Op>,
}

impl UndoLog {
    /// Number of recorded operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the log is empty (the transaction made no changes).
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The components and nets this log touches. The same set describes
    /// both the forward application and its undo, so incremental analyses
    /// can refresh from it after either direction.
    pub fn touch_set(&self) -> TouchSet {
        let mut t = TouchSet::new();
        for op in &self.ops {
            op.touch(&mut t);
        }
        t
    }

    /// Reverts all recorded changes, restoring the netlist to its exact
    /// pre-transaction state.
    ///
    /// # Panics
    ///
    /// Panics if the netlist was modified outside the transaction since
    /// the log was taken (the inverses then no longer apply).
    pub fn undo(self, nl: &mut Netlist) {
        for op in self.ops.into_iter().rev() {
            match op {
                Op::AddedComponent(id) => {
                    nl.remove_component(id).expect("undo: component exists");
                    // Free the tail slot so a re-application allocates the
                    // same ids (lookahead sequences depend on this).
                    nl.free_component_slot(id);
                }
                Op::RemovedComponent(id, comp, conns) => {
                    nl.restore_component(id, comp);
                    for (pin, net) in conns {
                        nl.connect(PinRef::new(id, pin), net)
                            .expect("undo: reconnect");
                    }
                }
                Op::Connected(pin, _) => {
                    nl.disconnect(pin).expect("undo: disconnect");
                }
                Op::Disconnected(pin, net) => {
                    nl.connect(pin, net).expect("undo: reconnect");
                }
                Op::AddedNet(id) => {
                    nl.remove_net(id).expect("undo: net unused by now");
                    nl.free_net_slot(id);
                }
                Op::RemovedNet(id, net) => {
                    nl.restore_net(id, net);
                }
                Op::KindChanged(id, kind) => {
                    nl.set_kind(id, kind).expect("undo: component exists");
                }
            }
        }
    }
}

/// A transaction over a netlist: exposes the mutation API and records
/// inverse operations.
///
/// Mutations apply to the netlist immediately; [`Tx::commit`] hands the
/// recorded inverses to the caller. A `Tx` dropped *without* committing
/// rolls its mutations back — a strategy or rule that bails out halfway
/// through a rewrite (`?`/`continue`/panic unwind) leaves the netlist
/// exactly as it found it, never half-rewritten.
pub struct Tx<'a> {
    nl: &'a mut Netlist,
    ops: Vec<Op>,
}

impl Drop for Tx<'_> {
    fn drop(&mut self) {
        // Roll back an uncommitted (abandoned) transaction. `commit`
        // takes the ops out first, so a committed Tx undoes nothing.
        let ops = std::mem::take(&mut self.ops);
        if !ops.is_empty() {
            UndoLog { ops }.undo(self.nl);
        }
    }
}

impl<'a> Tx<'a> {
    /// Opens a transaction.
    pub fn new(nl: &'a mut Netlist) -> Self {
        Self {
            nl,
            ops: Vec::new(),
        }
    }

    /// Read access to the underlying netlist.
    pub fn netlist(&self) -> &Netlist {
        self.nl
    }

    /// Finishes the transaction, returning the undo log.
    pub fn commit(mut self) -> UndoLog {
        UndoLog {
            ops: std::mem::take(&mut self.ops),
        }
    }

    /// Adds a net. See [`Netlist::add_net`].
    pub fn add_net(&mut self, name: impl Into<String>) -> NetId {
        let id = self.nl.add_net(name);
        self.ops.push(Op::AddedNet(id));
        id
    }

    /// Adds a component. See [`Netlist::add_component`].
    pub fn add_component(&mut self, name: impl Into<String>, kind: ComponentKind) -> ComponentId {
        let id = self.nl.add_component(name, kind);
        self.ops.push(Op::AddedComponent(id));
        id
    }

    /// Connects a pin. See [`Netlist::connect`].
    ///
    /// # Errors
    ///
    /// Same as [`Netlist::connect`].
    pub fn connect(&mut self, pin: PinRef, net: NetId) -> Result<(), NetlistError> {
        self.nl.connect(pin, net)?;
        self.ops.push(Op::Connected(pin, net));
        Ok(())
    }

    /// Connects a named pin. See [`Netlist::connect_named`].
    ///
    /// # Errors
    ///
    /// Same as [`Netlist::connect_named`].
    pub fn connect_named(
        &mut self,
        component: ComponentId,
        pin_name: &str,
        net: NetId,
    ) -> Result<(), NetlistError> {
        let idx = self
            .nl
            .component(component)?
            .pin_index(pin_name)
            .ok_or(NetlistError::NoSuchPin(PinRef::new(component, u16::MAX)))?;
        self.connect(PinRef::new(component, idx), net)
    }

    /// Disconnects a pin. See [`Netlist::disconnect`].
    ///
    /// # Errors
    ///
    /// Same as [`Netlist::disconnect`].
    pub fn disconnect(&mut self, pin: PinRef) -> Result<NetId, NetlistError> {
        let net = self.nl.disconnect(pin)?;
        self.ops.push(Op::Disconnected(pin, net));
        Ok(net)
    }

    /// Removes a component (recording its connections for undo).
    ///
    /// # Errors
    ///
    /// Same as [`Netlist::remove_component`].
    pub fn remove_component(&mut self, id: ComponentId) -> Result<(), NetlistError> {
        let conns: Vec<(u16, NetId)> = self
            .nl
            .component(id)?
            .pins
            .iter()
            .enumerate()
            .filter_map(|(i, p)| p.net.map(|n| (i as u16, n)))
            .collect();
        let comp = self.nl.remove_component(id)?;
        self.ops.push(Op::RemovedComponent(id, comp, conns));
        Ok(())
    }

    /// Removes an unused net.
    ///
    /// # Errors
    ///
    /// Same as [`Netlist::remove_net`].
    pub fn remove_net(&mut self, id: NetId) -> Result<(), NetlistError> {
        let net = self.nl.remove_net(id)?;
        self.ops.push(Op::RemovedNet(id, net));
        Ok(())
    }

    /// Splices a copy of `inner` in as instance `prefix`. See
    /// [`Netlist::splice`]. Records the nets and components it added and
    /// each connection of an added component, so the touch set names
    /// every outer net the copy joined and an undo removes the copy.
    ///
    /// # Errors
    ///
    /// Same as [`Netlist::splice`]; nothing is added then.
    pub fn splice(
        &mut self,
        inner: &Netlist,
        prefix: &str,
        pins: &[(&str, Option<NetId>)],
    ) -> Result<Spliced, NetlistError> {
        let added = self.nl.splice(inner, prefix, pins)?;
        self.ops.extend(added.nets().map(Op::AddedNet));
        for id in added.components() {
            self.ops.push(Op::AddedComponent(id));
            for (pin, p) in self.nl.component(id)?.pins.iter().enumerate() {
                if let Some(net) = p.net {
                    self.ops
                        .push(Op::Connected(PinRef::new(id, pin as u16), net));
                }
            }
        }
        Ok(added)
    }

    /// Swaps a component's kind in place (pin layouts must be compatible).
    ///
    /// # Errors
    ///
    /// Fails if the component does not exist.
    pub fn change_kind(
        &mut self,
        id: ComponentId,
        kind: ComponentKind,
    ) -> Result<(), NetlistError> {
        let old = self.nl.set_kind(id, kind)?;
        self.ops.push(Op::KindChanged(id, old));
        Ok(())
    }

    /// Moves every load of `from` onto `to` (drivers stay) — the common
    /// "bypass this gate" operation.
    ///
    /// # Errors
    ///
    /// Propagates connection errors.
    pub fn move_loads(&mut self, from: NetId, to: NetId) -> Result<usize, NetlistError> {
        let loads = self.nl.loads(from);
        let n = loads.len();
        for pin in loads {
            self.disconnect(pin)?;
            self.connect(pin, to)?;
        }
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use milo_netlist::{GateFn, GenericMacro, PinDir};

    fn base() -> Netlist {
        let mut nl = Netlist::new("t");
        let a = nl.add_net("a");
        let y = nl.add_net("y");
        let g = nl.add_component(
            "g",
            ComponentKind::Generic(GenericMacro::Gate(GateFn::Inv, 1)),
        );
        nl.connect_named(g, "A0", a).unwrap();
        nl.connect_named(g, "Y", y).unwrap();
        nl.add_port("a", PinDir::In, a);
        nl.add_port("y", PinDir::Out, y);
        nl
    }

    #[test]
    fn undo_restores_exactly() {
        let mut nl = base();
        let before = format!("{nl:?}");
        let mut tx = Tx::new(&mut nl);
        // Splice a buffer after the inverter.
        let g = tx.netlist().component_ids().next().unwrap();
        let y = tx.netlist().pin_net(g, "Y").unwrap();
        let mid = tx.add_net("mid");
        tx.move_loads(y, mid).unwrap();
        let b = tx.add_component(
            "b",
            ComponentKind::Generic(GenericMacro::Gate(GateFn::Buf, 1)),
        );
        tx.connect_named(b, "A0", y).unwrap();
        // note: output port still on y; buffer output dangles — fine for test
        let log = tx.commit();
        assert!(!log.is_empty());
        log.undo(&mut nl);
        assert_eq!(format!("{nl:?}"), before);
    }

    #[test]
    fn abandoned_tx_rolls_back_on_drop() {
        let mut nl = base();
        let before = format!("{nl:?}");
        {
            let mut tx = Tx::new(&mut nl);
            let g = tx.netlist().component_ids().next().unwrap();
            tx.remove_component(g).unwrap();
            tx.add_net("orphan");
            // Dropped without commit — e.g. a strategy bailing out with
            // `?` halfway through a rewrite.
        }
        assert_eq!(
            format!("{nl:?}"),
            before,
            "drop must undo the partial rewrite"
        );
    }

    #[test]
    fn committed_tx_keeps_changes_on_drop() {
        let mut nl = base();
        let g = nl.component_ids().next().unwrap();
        let mut tx = Tx::new(&mut nl);
        tx.remove_component(g).unwrap();
        let log = tx.commit();
        assert_eq!(nl.component_count(), 0, "commit keeps the rewrite applied");
        log.undo(&mut nl);
        assert_eq!(nl.component_count(), 1);
    }

    #[test]
    fn undo_remove_component() {
        let mut nl = base();
        let g = nl.component_ids().next().unwrap();
        let before = format!("{nl:?}");
        let mut tx = Tx::new(&mut nl);
        tx.remove_component(g).unwrap();
        let log = tx.commit();
        log.undo(&mut nl);
        assert_eq!(format!("{nl:?}"), before);
    }

    #[test]
    fn undo_kind_change() {
        let mut nl = base();
        let g = nl.component_ids().next().unwrap();
        let mut tx = Tx::new(&mut nl);
        tx.change_kind(
            g,
            ComponentKind::Generic(GenericMacro::Gate(GateFn::Buf, 1)),
        )
        .unwrap();
        let log = tx.commit();
        assert!(matches!(
            nl.component(g).unwrap().kind,
            ComponentKind::Generic(GenericMacro::Gate(GateFn::Buf, 1))
        ));
        log.undo(&mut nl);
        assert!(matches!(
            nl.component(g).unwrap().kind,
            ComponentKind::Generic(GenericMacro::Gate(GateFn::Inv, 1))
        ));
    }

    #[test]
    fn nested_transactions_compose() {
        let mut nl = base();
        let before = format!("{nl:?}");
        let mut logs = Vec::new();
        for i in 0..3 {
            let mut tx = Tx::new(&mut nl);
            tx.add_net(format!("extra{i}"));
            logs.push(tx.commit());
        }
        for log in logs.into_iter().rev() {
            log.undo(&mut nl);
        }
        assert_eq!(format!("{nl:?}"), before);
    }

    /// Undo across nested checkpoints whose transactions build on each
    /// other structurally (later transactions rewire what earlier ones
    /// created): unwinding to any checkpoint restores that exact state,
    /// and new work can stack on top of a partial unwind.
    #[test]
    fn undo_across_nested_checkpoints() {
        let mut nl = base();
        let mut checkpoints = vec![format!("{nl:?}")];
        let mut logs = Vec::new();

        // Checkpoint 1: splice a buffer after the inverter.
        let g = nl.component_ids().next().unwrap();
        let y = nl.pin_net(g, "Y").unwrap();
        let mut tx = Tx::new(&mut nl);
        let mid = tx.add_net("mid");
        tx.move_loads(y, mid).unwrap();
        let b = tx.add_component(
            "b",
            ComponentKind::Generic(GenericMacro::Gate(GateFn::Buf, 1)),
        );
        tx.connect_named(b, "A0", y).unwrap();
        tx.connect_named(b, "Y", mid).unwrap();
        logs.push(tx.commit());
        checkpoints.push(format!("{nl:?}"));

        // Checkpoint 2: re-kind the buffer the previous checkpoint added.
        let mut tx = Tx::new(&mut nl);
        tx.change_kind(
            b,
            ComponentKind::Generic(GenericMacro::Gate(GateFn::Inv, 1)),
        )
        .unwrap();
        logs.push(tx.commit());
        checkpoints.push(format!("{nl:?}"));

        // Checkpoint 3: remove the original inverter entirely.
        let mut tx = Tx::new(&mut nl);
        tx.remove_component(g).unwrap();
        logs.push(tx.commit());
        checkpoints.push(format!("{nl:?}"));

        // Unwind to checkpoint 1, verify, stack new work, then unwind
        // everything to the initial state.
        logs.pop().unwrap().undo(&mut nl);
        logs.pop().unwrap().undo(&mut nl);
        assert_eq!(format!("{nl:?}"), checkpoints[1]);
        let mut tx = Tx::new(&mut nl);
        tx.add_net("scratch");
        let redo = tx.commit();
        redo.undo(&mut nl);
        assert_eq!(format!("{nl:?}"), checkpoints[1]);
        logs.pop().unwrap().undo(&mut nl);
        assert_eq!(format!("{nl:?}"), checkpoints[0]);
    }

    /// A spliced copy is undone exactly, and its touch set names the
    /// outer nets it joined as well as what it added.
    #[test]
    fn undo_splice_restores_exactly() {
        let mut nl = base();
        let inner = base();
        let a = nl.port("a").unwrap().net;
        let y = nl.port("y").unwrap().net;
        let before = format!("{nl:?}");
        let mut tx = Tx::new(&mut nl);
        let added = tx
            .splice(&inner, "u", &[("a", Some(y)), ("y", None)])
            .unwrap();
        let (nets, comps): (Vec<_>, Vec<_>) =
            (added.nets().collect(), added.components().collect());
        assert_eq!((nets.len(), comps.len()), (1, 1));
        let log = tx.commit();
        let ts = log.touch_set();
        assert!(ts.nets.contains(&y), "the joined outer net is touched");
        assert!(ts.nets.contains(&nets[0]));
        assert!(ts.components.contains(&comps[0]));
        log.undo(&mut nl);
        assert_eq!(format!("{nl:?}"), before);
        // A pin naming no port of the copy fails without adding anything.
        let mut tx = Tx::new(&mut nl);
        assert!(tx.splice(&inner, "v", &[("q", Some(a))]).is_err());
        assert!(tx.commit().is_empty());
        assert_eq!(format!("{nl:?}"), before);
    }

    /// A rejected (errored) rewrite still leaves a log whose touch set
    /// covers every element the partial work touched — the contract the
    /// incremental STA and the match-index repair both rely on.
    #[test]
    fn rejected_rewrite_touch_set_covers_partial_work() {
        let mut nl = base();
        let g = nl.component_ids().next().unwrap();
        let y = nl.pin_net(g, "Y").unwrap();
        let before = format!("{nl:?}");

        // Partial work, then a failing operation (removing a net that is
        // still in use), as a rule's apply would produce before erroring.
        let mut tx = Tx::new(&mut nl);
        let extra = tx.add_net("extra");
        let b = tx.add_component(
            "rej",
            ComponentKind::Generic(GenericMacro::Gate(GateFn::Buf, 1)),
        );
        tx.connect_named(b, "A0", y).unwrap();
        tx.connect_named(b, "Y", extra).unwrap();
        assert!(tx.remove_net(y).is_err(), "net in use: the rewrite fails");
        let log = tx.commit();

        let ts = log.touch_set();
        assert!(ts.components.contains(&b), "added component touched");
        assert!(ts.nets.contains(&extra), "added net touched");
        assert!(ts.nets.contains(&y), "connected-to net touched");
        // The failed op contributed nothing.
        assert_eq!(ts.components.len(), 3, "{ts:?}");

        // The same touch set describes the undo.
        log.undo(&mut nl);
        assert_eq!(format!("{nl:?}"), before);
    }
}
