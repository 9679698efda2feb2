package fiber

// clone.go extends the Map with the mutation primitives that perturb
// a copy of the baseline map: deep cloning, tenancy removal, and
// conduit darkening. The baseline Map built by mapbuilder stays
// immutable; Overlay.Materialize and the scenario engine's
// clone-per-scenario test oracle apply a perturbation to a clone.

// Clone returns a deep copy of the map: nodes, conduits (tenancy
// slices included), and the lookup indexes are all fresh. Geometry
// (paths) is shared — polylines are never mutated after construction.
func (m *Map) Clone() *Map {
	cp := &Map{
		Nodes:          append([]Node(nil), m.Nodes...),
		Conduits:       make([]Conduit, len(m.Conduits)),
		nodeByKey:      make(map[string]NodeID, len(m.nodeByKey)),
		conduitsByPair: make(map[pairKey][]ConduitID, len(m.conduitsByPair)),
		byTenant:       make(map[string][]ConduitID, len(m.byTenant)),
		linkCount:      m.linkCount,
	}
	for i := range m.Conduits {
		c := m.Conduits[i]
		c.Tenants = append([]string(nil), c.Tenants...)
		c.Hidden = append([]string(nil), c.Hidden...)
		cp.Conduits[i] = c
	}
	for k, v := range m.nodeByKey {
		cp.nodeByKey[k] = v
	}
	for k, v := range m.conduitsByPair {
		cp.conduitsByPair[k] = append([]ConduitID(nil), v...)
	}
	for k, v := range m.byTenant {
		cp.byTenant[k] = append([]ConduitID(nil), v...)
	}
	return cp
}

// RemoveTenant deletes isp's published presence from conduit cid,
// returning false if the tenancy was not recorded. The byTenant index
// and link count stay consistent.
func (m *Map) RemoveTenant(cid ConduitID, isp string) bool {
	c := &m.Conduits[cid]
	if !containsSorted(c.Tenants, isp) {
		return false
	}
	c.Tenants = removeSorted(c.Tenants, isp)
	cids := m.byTenant[isp]
	for i, id := range cids {
		if id == cid {
			m.byTenant[isp] = append(cids[:i], cids[i+1:]...)
			break
		}
	}
	if len(m.byTenant[isp]) == 0 {
		delete(m.byTenant, isp)
	}
	m.linkCount--
	return true
}

// ClearTenants strips every published tenancy from conduit cid — the
// model of a physical cut: the tube goes dark for everyone. It returns
// the number of tenancies removed.
func (m *Map) ClearTenants(cid ConduitID) int {
	tenants := append([]string(nil), m.Conduits[cid].Tenants...)
	for _, isp := range tenants {
		m.RemoveTenant(cid, isp)
	}
	return len(tenants)
}

// RemoveISP deletes every published tenancy of isp across the map,
// returning the number of links removed.
func (m *Map) RemoveISP(isp string) int {
	cids := append([]ConduitID(nil), m.byTenant[isp]...)
	for _, cid := range cids {
		m.RemoveTenant(cid, isp)
	}
	return len(cids)
}

func removeSorted(xs []string, x string) []string {
	i := 0
	for ; i < len(xs); i++ {
		if xs[i] == x {
			break
		}
	}
	if i == len(xs) {
		return xs
	}
	return append(xs[:i], xs[i+1:]...)
}
