//! The assembled virtual architecture.
//!
//! Bundles the four components of §2 (network model, primitives via the
//! program traits, middleware, cost functions) behind one handle, which is
//! what examples and the design-flow walkthrough (Figure 1) pass around.

use crate::cost::CostModel;
use crate::grid::VirtualGrid;
use crate::groups::Hierarchy;
use std::fmt;

/// A virtual architecture instance for a class of deployments.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VirtualArchitecture {
    /// The network model: an oriented 2-D grid.
    pub grid: VirtualGrid,
    /// The group-formation middleware.
    pub hierarchy: Hierarchy,
    /// The cost functions.
    pub cost: CostModel,
}

impl VirtualArchitecture {
    /// The paper's case-study architecture: a `side × side` oriented grid
    /// (`side` a power of two), hierarchical groups, uniform cost model.
    pub fn grid_uniform(side: u32) -> Self {
        VirtualArchitecture {
            grid: VirtualGrid::new(side),
            hierarchy: Hierarchy::new(side),
            cost: CostModel::uniform(),
        }
    }
}

impl fmt::Display for VirtualArchitecture {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "virtual architecture")?;
        writeln!(
            f,
            "  network model : oriented {0}x{0} grid ({1} points of coverage)",
            self.grid.side(),
            self.grid.node_count()
        )?;
        writeln!(
            f,
            "  middleware    : hierarchical groups, levels 0..={} (blocks 1x1 .. {1}x{1}, NW-corner leaders)",
            self.hierarchy.max_level(),
            self.hierarchy.block_size(self.hierarchy.max_level()),
        )?;
        writeln!(
            f,
            "  primitives    : send()/receive() to any node; group send to level-k leader"
        )?;
        write!(
            f,
            "  cost model    : tx={} rx={} compute={} energy/unit; {} tick(s)/unit/hop",
            self.cost.tx_energy,
            self.cost.rx_energy,
            self.cost.compute_energy,
            self.cost.ticks_per_unit
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn components_agree_on_side() {
        let a = VirtualArchitecture::grid_uniform(8);
        assert_eq!(a.grid.side(), 8);
        assert_eq!(a.hierarchy.side(), 8);
        assert_eq!(a.hierarchy.max_level(), 3);
    }

    #[test]
    fn display_mentions_all_components() {
        let s = VirtualArchitecture::grid_uniform(4).to_string();
        assert!(s.contains("4x4 grid"));
        assert!(s.contains("hierarchical groups"));
        assert!(s.contains("send()/receive()"));
        assert!(s.contains("cost model"));
    }
}
