//! The client proxy (§4.3).
//!
//! In the paper the client proxy is a daemon collocated with each
//! PostgreSQL VM: MJoin hands it a JSON list of object names over a
//! message queue, and the proxy issues the HTTP GETs — crucially tagging
//! each with a *query identifier*, which is what makes the CSD scheduler
//! query-aware. Architecturally it decouples the engine from the storage
//! interface (the paper reuses it unchanged for raw-file foreign-data
//! scans).
//!
//! Here the proxy is the component that translates the engine's
//! relation-local `(rel, seg)` requests into globally addressed, tagged
//! [`ObjectId`]s. The engines count their own GETs in
//! [`EngineStats`](crate::engine::EngineStats).

use skipper_csd::ObjectId;

use crate::subplan::RelSeg;

/// Translates engine-local segment requests into tagged CSD GETs.
#[derive(Clone, Debug)]
pub(crate) struct ClientProxy {
    tenant: u16,
    /// Catalog table index per query relation.
    rel_tables: Vec<u16>,
}

impl ClientProxy {
    /// Creates a proxy for `tenant` whose query relations map to the
    /// given catalog table indexes.
    pub(crate) fn new(tenant: u16, rel_tables: Vec<u16>) -> Self {
        ClientProxy { tenant, rel_tables }
    }

    /// The object id for a query-relation segment.
    pub(crate) fn object_id(&self, obj: RelSeg) -> ObjectId {
        ObjectId::new(self.tenant, self.rel_tables[obj.0], obj.1)
    }

    /// The query relation for a delivered object, if the object belongs
    /// to this query (deliveries for older queries of the same tenant
    /// return `None`).
    pub(crate) fn rel_of(&self, object: ObjectId) -> Option<usize> {
        if object.tenant != self.tenant {
            return None;
        }
        self.rel_tables.iter().position(|&t| t == object.table)
    }

    /// The object ids of a GET request list, in order.
    pub(crate) fn issue(&self, objects: &[RelSeg]) -> Vec<ObjectId> {
        objects.iter().map(|&o| self.object_id(o)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_relations_to_catalog_tables() {
        let p = ClientProxy::new(3, vec![4, 5]);
        assert_eq!(p.object_id((0, 7)), ObjectId::new(3, 4, 7));
        assert_eq!(p.object_id((1, 0)), ObjectId::new(3, 5, 0));
        assert_eq!(p.rel_of(ObjectId::new(3, 5, 9)), Some(1));
        assert_eq!(p.rel_of(ObjectId::new(3, 9, 0)), None);
        assert_eq!(p.rel_of(ObjectId::new(2, 4, 0)), None, "wrong tenant");
    }
}
